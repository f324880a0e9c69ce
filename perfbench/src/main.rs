//! `perfbench`: the repository's end-to-end and per-layer host-time
//! benchmark over three GENx jobs (`checkpoint`, `restart`, `wide`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload checkpoint --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The parent process re-executes itself once per measured run, so every
//! run has its own address space: `peak_rss_mb` is that run's `VmHWM`, and
//! no allocator state carries from one run to the next. It keeps starting
//! runs until `--seconds` have passed (at least two, and enough samples
//! for the 99th percentile), reports medians across runs and percentiles
//! across the pooled per-rank samples, checks the outputs, and prints one
//! JSON object as the last line of standard output. `--trace 1` adds one
//! traced run and reports the per-layer metrics instead.
//!
//! The benchmark writes no files: the program's store is in memory.

mod jobs;
mod layers;
mod probe;

use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use probe::Op;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// The workloads, with the operation whose latency is each one's
/// `op_ms_*` end-to-end metric.
const WORKLOADS: [(&str, Op); 3] = [
    ("checkpoint", Op::Snapshot),
    ("restart", Op::TwoPhaseRestart),
    ("wide", Op::Step),
];

/// Fewest measured runs per invocation: the determinism check compares
/// runs, and `setup_s` is a median over runs.
const MIN_RUNS: usize = 2;
/// A 99th percentile needs at least ten samples beyond it.
const MIN_TAIL: usize = 10;
/// Stop starting runs once this much time has passed, so the whole
/// invocation ends well within three minutes.
const HARD_LIMIT: Duration = Duration::from_secs(150);
/// A run that lost more than this share of the machine's CPU time to the
/// hypervisor measured the host, not the program: it is set aside, and
/// more runs are made in its place for up to 1.5 times `--seconds`.
const MAX_STEAL_SHARE: f64 = 0.02;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child") {
        return child(&args[1..]);
    }
    match parse(&args) {
        Ok(cli) => parent(&cli),
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <checkpoint|restart|wide> --seed <n> --seconds <n> --trace <0|1>"
            );
            ExitCode::from(2)
        }
    }
}

struct Cli {
    workload: &'static str,
    primary: Op,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let &(name, primary) = WORKLOADS
        .iter()
        .find(|(n, _)| *n == workload)
        .ok_or(format!("unknown workload {workload}"))?;
    Ok(Cli {
        workload: name,
        primary,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

// ---------------------------------------------------------------------------
// Child: one set-up and one timed phase, reported as text lines.
// ---------------------------------------------------------------------------

fn child(args: &[String]) -> ExitCode {
    let [workload, seed, traced] = args else {
        eprintln!("perfbench --child <workload> <seed> <0|1>");
        return ExitCode::from(2);
    };
    let seed: u64 = seed.parse().expect("child seed");
    let traced = traced == "1";
    let run = match workload.as_str() {
        "checkpoint" => jobs::checkpoint(seed, traced),
        "restart" => jobs::restart(seed, traced),
        "wide" => jobs::wide(seed, traced),
        other => panic!("unknown workload {other}"),
    };
    let m = match run {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if traced {
        if let Err(e) = write_spans(workload, seed, &m.spans) {
            eprintln!("perfbench: writing spans: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut out = String::new();
    for (k, v) in [
        ("setup_s", m.setup_s),
        ("wall_s", m.wall_s),
        ("cpu_s", m.cpu_s),
        ("steal_s", m.steal_s),
        ("allocs", m.allocs as f64),
        ("peak_rss_mb", probe::peak_rss_mb()),
        ("attempted", m.attempted as f64),
        ("failed", m.failed as f64),
        ("io_calls", m.io_calls as f64),
        ("io_failed", m.io_failed as f64),
    ] {
        out += &format!("{k} {v}\n");
    }
    for f in &m.failures {
        out += &format!("failure {}\n", f.replace('\n', " "));
    }
    for (op, samples) in Op::ALL.iter().zip(&m.op_ms) {
        for s in samples {
            out += &format!("op {} {s}\n", op.name());
        }
    }
    for (k, v) in &m.vt {
        out += &format!("vt {k} {v}\n");
    }
    for (k, v) in &m.layers {
        out += &format!("layer {k} {v}\n");
    }
    print!("{out}");
    ExitCode::SUCCESS
}

/// Directory, relative to the working directory, that receives the spans
/// of traced runs.
const SPAN_DIR: &str = ".perfbench";

/// Write a traced run's spans, kept in memory until now, as CSV. `run`
/// identifies the process that recorded them; `parent` is a row index.
fn write_spans(workload: &str, seed: u64, spans: &[probe::Span]) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(SPAN_DIR)?;
    let path = format!("{SPAN_DIR}/spans-{workload}-seed{seed}.csv");
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(
        w,
        "run,row,rank,name,start_s,end_s,parent,cpu_s,self_allocs"
    )?;
    let run = std::process::id();
    for (row, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(String::new(), |p| p.to_string());
        writeln!(
            w,
            "{run},{row},{},{},{},{},{parent},{},{}",
            s.rank, s.name, s.start, s.end, s.cpu, s.self_allocs
        )?;
    }
    w.flush()?;
    eprintln!("perfbench: wrote {} spans to {path}", spans.len());
    Ok(())
}

/// One child's report, parsed.
#[derive(Default)]
struct Run {
    scalars: Vec<(String, f64)>,
    failures: Vec<String>,
    op_ms: [Vec<f64>; 4],
    vt: Vec<(String, f64)>,
    layers: Vec<(String, f64)>,
}

impl Run {
    /// Share of the machine's CPU time the hypervisor took during the run.
    fn steal_share(&self, cpus: f64) -> f64 {
        self.scalar("steal_s") / (cpus * self.scalar("wall_s"))
    }

    fn disturbed(&self, cpus: f64) -> bool {
        self.steal_share(cpus) > MAX_STEAL_SHARE
    }

    fn scalar(&self, name: &str) -> f64 {
        self.scalars
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN)
    }

    fn parse(text: &str) -> Result<Run, String> {
        let mut run = Run::default();
        for line in text.lines() {
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            if kind == "failure" {
                run.failures.push(rest.to_string());
                continue;
            }
            let (name, value) = rest.split_once(' ').unwrap_or((kind, rest));
            let v: f64 = value
                .parse()
                .map_err(|e| format!("bad child line {line:?}: {e}"))?;
            match kind {
                "op" => {
                    let op = Op::ALL
                        .iter()
                        .position(|o| o.name() == name)
                        .ok_or(format!("bad op in {line:?}"))?;
                    run.op_ms[op].push(v);
                }
                "vt" => run.vt.push((name.to_string(), v)),
                "layer" => run.layers.push((name.to_string(), v)),
                _ => run.scalars.push((kind.to_string(), v)),
            }
        }
        Ok(run)
    }
}

// ---------------------------------------------------------------------------
// Parent: re-exec runs, aggregate, check, report.
// ---------------------------------------------------------------------------

/// Run one child to completion, killing it at `deadline`.
fn run_child(cli: &Cli, traced: bool, deadline: Instant) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "--child",
            cli.workload,
            &cli.seed.to_string(),
            if traced { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    // Drain the pipe on its own thread so a large report cannot block the
    // child while this thread polls for its exit.
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break Some(status),
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                child.wait().map_err(|e| format!("wait after kill: {e}"))?;
                break None;
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let text = reader
        .join()
        .expect("stdout reader thread panicked")
        .map_err(|e| format!("read child stdout: {e}"))?;
    match status {
        None => Err("run exceeded the time limit and was killed".into()),
        Some(s) if !s.success() => Err(format!("run exited with {s}")),
        Some(_) => Run::parse(&text),
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `q` among `n` samples, or `None`
/// when fewer than [`MIN_TAIL`] samples lie beyond it.
fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    let rank = ((q * n as f64).ceil() as usize).max(1);
    (n >= rank + MIN_TAIL).then_some(rank)
}

/// Nearest-rank percentile `q` of `samples` (see [`nearest_rank`]).
fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let rank = nearest_rank(samples.len(), q)?;
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank - 1])
}

struct Report {
    lines: Vec<String>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Report {
    fn line(&mut self, s: String) {
        self.lines.push(s);
    }

    fn fail(&mut self, why: String) {
        self.correct = false;
        self.line(format!("  FAILED: {why}"));
    }
}

fn parent(cli: &Cli) -> ExitCode {
    let start = Instant::now();
    let budget = Duration::from_secs(cli.seconds);
    let mut rep = Report {
        lines: Vec::new(),
        attempted: 0,
        failed: 0,
        correct: true,
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let enough = |runs: &[&Run]| {
        let samples: usize = runs
            .iter()
            .map(|r| r.op_ms[cli.primary as usize].len())
            .sum();
        runs.len() >= MIN_RUNS && nearest_rank(samples, 0.99).is_some()
    };
    let mut all: Vec<Run> = Vec::new();
    let mut longest = Duration::ZERO;
    loop {
        let t = Instant::now();
        match run_child(cli, false, start + HARD_LIMIT) {
            Ok(r) => all.push(r),
            Err(e) => {
                rep.fail(format!("measured run {}: {e}", all.len() + 1));
                break;
            }
        }
        longest = longest.max(t.elapsed());
        let clean: Vec<&Run> = all.iter().filter(|r| !r.disturbed(cpus)).collect();
        let elapsed = start.elapsed();
        if (enough(&clean) && elapsed >= budget)
            || (enough(&all.iter().collect::<Vec<_>>()) && elapsed >= budget * 3 / 2)
            || elapsed + longest > HARD_LIMIT
        {
            break;
        }
    }
    // Report the undisturbed runs, topped up with the least disturbed
    // ones when too few were clean.
    let mut by_steal: Vec<&Run> = all.iter().collect();
    by_steal.sort_by(|a, b| a.steal_share(cpus).total_cmp(&b.steal_share(cpus)));
    let mut runs: Vec<&Run> = Vec::new();
    for r in by_steal {
        if !r.disturbed(cpus) || !enough(&runs) {
            runs.push(r);
        }
    }
    let traced = if cli.trace && rep.correct {
        match run_child(cli, true, start + HARD_LIMIT + Duration::from_secs(20)) {
            Ok(r) => Some(r),
            Err(e) => {
                rep.fail(format!("traced run: {e}"));
                None
            }
        }
    } else {
        None
    };

    rep.line(format!(
        "perfbench {} seed {}: {} measured run(s){}, each in a fresh process; {cpus} host CPUs",
        cli.workload,
        cli.seed,
        all.len(),
        if traced.is_some() {
            " + 1 traced run"
        } else {
            ""
        },
    ));
    rep.line(format!(
        "  reporting {} run(s); {} lost more than {}% of the machine's CPU time to the hypervisor (steal)",
        runs.len(),
        all.iter().filter(|r| r.disturbed(cpus)).count(),
        MAX_STEAL_SHARE * 100.0,
    ));
    for name in ["wall_s", "steal_s"] {
        let per_run: Vec<String> = all
            .iter()
            .map(|r| format!("{:.3}", r.scalar(name)))
            .collect();
        rep.line(format!("  {name} per run: {}", per_run.join(" ")));
    }
    check_runs(cli, &all, traced.as_ref(), &mut rep);

    let medians = |name: &str| median(&runs.iter().map(|r| r.scalar(name)).collect::<Vec<_>>());
    let mut pooled: [Vec<f64>; 4] = Default::default();
    for r in &runs {
        for (pool, mine) in pooled.iter_mut().zip(&r.op_ms) {
            pool.extend(mine);
        }
    }
    let primary = &pooled[cli.primary as usize];
    let mut e2e: Vec<(&str, f64, &str)> = vec![
        ("wall_s", medians("wall_s"), "s"),
        ("cpu_s", medians("cpu_s"), "s"),
        ("peak_rss_mb", medians("peak_rss_mb"), "MB"),
        ("setup_s", medians("setup_s"), "s"),
        ("allocs", medians("allocs"), "count"),
    ];
    for (name, q) in [("op_ms_p50", 0.50), ("op_ms_p99", 0.99)] {
        match percentile(primary, q) {
            Some(v) => e2e.push((name, v, "ms")),
            None => rep.fail(format!(
                "{name}: {} {} samples are too few",
                primary.len(),
                cli.primary.name()
            )),
        }
    }
    print_human(cli, &runs, &pooled, &e2e, &mut rep);

    let metrics: Vec<(String, f64, &str)> = match &traced {
        Some(t) => {
            let untraced_wall = medians("wall_s");
            layers::PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let v = if name == "trace.overhead_frac" {
                        t.scalar("wall_s") / untraced_wall - 1.0
                    } else {
                        t.layers
                            .iter()
                            .find(|(k, _)| k == name)
                            .map_or(0.0, |(_, v)| *v)
                    };
                    rep.line(format!("  {name:<40} {v:>16.6} {unit}"));
                    (name.to_string(), v, unit)
                })
                .collect()
        }
        None => e2e.iter().map(|&(n, v, u)| (n.to_string(), v, u)).collect(),
    };
    if cli.trace && traced.is_none() {
        rep.fail("no traced run completed".into());
    }

    for l in &rep.lines {
        println!("{l}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.correct,
        rep.attempted.max(1),
        rep.failed,
        body.join(", ")
    );
    if rep.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Correctness: every operation and check in every run, plus identical
/// virtual-time outputs across the runs of one seed (traced included:
/// tracing must not move the model).
fn check_runs(cli: &Cli, runs: &[Run], traced: Option<&Run>, rep: &mut Report) {
    let all: Vec<&Run> = runs.iter().chain(traced).collect();
    for (i, r) in all.iter().enumerate() {
        rep.attempted += r.scalar("attempted") as u64;
        rep.failed += r.scalar("failed") as u64;
        for f in &r.failures {
            rep.fail(format!("run {}: {f}", i + 1));
        }
    }
    rep.attempted += 1;
    let first = all.first().map(|r| &r.vt);
    let same = all.iter().all(|r| Some(&r.vt) == first);
    if same && all.len() >= 2 {
        rep.line(format!(
            "  virtual-time outputs identical across all {} runs of {} seed {}",
            all.len(),
            cli.workload,
            cli.seed
        ));
    } else {
        rep.failed += 1;
        rep.fail(format!(
            "virtual-time outputs differ across runs of the same seed (or fewer than 2 runs): {:?}",
            all.iter().map(|r| &r.vt).collect::<Vec<_>>()
        ));
    }
}

fn print_human(
    cli: &Cli,
    runs: &[&Run],
    pooled: &[Vec<f64>; 4],
    e2e: &[(&str, f64, &str)],
    rep: &mut Report,
) {
    for (name, v, unit) in e2e {
        rep.line(format!("  {name:<20} {v:>14.4} {unit}"));
    }
    rep.line(format!(
        "  (op = {} on {}; medians over {} runs)",
        cli.primary.name(),
        cli.workload,
        runs.len()
    ));
    for (op, samples) in Op::ALL.iter().zip(pooled) {
        for (q, tag) in [(0.50, "p50"), (0.99, "p99")] {
            let name = format!("{}_ms_{tag}", op.name());
            match percentile(samples, q) {
                Some(v) => rep.line(format!(
                    "  {name:<20} {v:>14.4} ms  (n={})",
                    samples.len()
                )),
                None => rep.line(format!(
                    "  {name:<20} {:>14} ms  (omitted: n={} leaves fewer than {MIN_TAIL} samples beyond it)",
                    "-",
                    samples.len()
                )),
            }
        }
    }
    rep.line(format!(
        "  {:<20} {:>14.6} ratio  ({} of {} operations failed)",
        "failed_op_share",
        rep.failed as f64 / rep.attempted.max(1) as f64,
        rep.failed,
        rep.attempted
    ));
    let io = |name: &str| runs.iter().map(|r| r.scalar(name)).sum::<f64>();
    rep.line(format!(
        "  I/O module calls at the roccom boundary: {} ({} failed)",
        io("io_calls"),
        io("io_failed")
    ));
    if let Some(r) = runs.first() {
        for (k, v) in &r.vt {
            if k.starts_with("genx.vt.") {
                rep.line(format!("  {k:<30} {v:>14.6} (model output, not gated)"));
            }
        }
    }
}
