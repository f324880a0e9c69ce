//! Pane ⇄ data-block conversion: the bridge between registered simulation
//! data and the I/O layer.
//!
//! A pane serializes into a [`DataBlock`] whose datasets follow GENx's
//! conventions: mesh coordinates in `"nc"` (nodes × 3), tetrahedral
//! connectivity in `"conn"` (elems × 4), then each declared attribute under
//! its own name. Geometry of structured panes is additionally kept in
//! block attributes so the pane can be reconstructed exactly.

use rocio_core::{ArrayData, AttrValue, DataBlock, Dataset, Result, RocError};
use rocmesh::StructuredBlock;

use crate::selector::AttrRef;
use crate::window::{AttrSpec, Location, Pane, PaneMesh, Window};

/// Serialize one pane into a data block carrying the selected attributes.
pub fn pane_to_block(window: &Window, pane: &Pane, attr: &AttrRef) -> Result<DataBlock> {
    let mut block = DataBlock::new(pane.id, window.name());
    block
        .attrs
        .insert("n_nodes".into(), AttrValue::Int(pane.mesh.n_nodes() as i64));
    block
        .attrs
        .insert("n_elems".into(), AttrValue::Int(pane.mesh.n_elems() as i64));

    // Mesh datasets (always present for All/Mesh; omitted for Named).
    match &pane.mesh {
        PaneMesh::Structured {
            dims,
            origin,
            spacing,
        } => {
            block.attrs.insert("mesh_kind".into(), "structured".into());
            block.attrs.insert(
                "dims".into(),
                AttrValue::IntVec(dims.iter().map(|&d| d as i64).collect()),
            );
            block
                .attrs
                .insert("origin".into(), AttrValue::FloatVec(origin.to_vec()));
            block
                .attrs
                .insert("spacing".into(), AttrValue::FloatVec(spacing.to_vec()));
            if !matches!(attr, AttrRef::Named(_)) {
                let sb = StructuredBlock::new(pane.id, *dims, *origin, *spacing);
                block.push_dataset(Dataset::new(
                    "nc",
                    vec![pane.mesh.n_nodes(), 3],
                    ArrayData::F64(sb.node_coords()),
                )?)?;
            }
        }
        PaneMesh::Unstructured { coords, conn } => {
            block.attrs.insert("mesh_kind".into(), "unstructured".into());
            if !matches!(attr, AttrRef::Named(_)) {
                block.push_dataset(Dataset::new(
                    "nc",
                    vec![pane.mesh.n_nodes(), 3],
                    ArrayData::F64(coords.clone()),
                )?)?;
                block.push_dataset(Dataset::new(
                    "conn",
                    vec![pane.mesh.n_elems(), 4],
                    ArrayData::I32(conn.clone()),
                )?)?;
            }
        }
    }

    // Attribute datasets.
    let selected: Vec<&AttrSpec> = match attr {
        AttrRef::Mesh => Vec::new(),
        AttrRef::All => window.schema().iter().collect(),
        AttrRef::Named(name) => vec![window.attr_spec(name)?],
    };
    for spec in selected {
        let buf = pane.data(&spec.name)?;
        let count = buf.len() / spec.ncomp;
        let shape = if spec.ncomp == 1 {
            vec![count]
        } else {
            vec![count, spec.ncomp]
        };
        let ds = Dataset::new(spec.name.clone(), shape, buf.clone())?.with_attr(
            "location",
            match spec.location {
                Location::Node => "node",
                Location::Element => "element",
                Location::Pane => "pane",
            },
        );
        block.push_dataset(ds)?;
    }
    Ok(block)
}

/// Serialize the selected attributes of every local pane of a window.
pub fn window_to_blocks(window: &Window, attr: &AttrRef) -> Result<Vec<DataBlock>> {
    window
        .panes()
        .map(|p| pane_to_block(window, p, attr))
        .collect()
}

/// Extract an owned `f64` vector from typed or zero-copy `Shared` data:
/// one decode for `Shared`, one copy for typed — never both.
fn f64_vec(data: &ArrayData) -> Result<Vec<f64>> {
    match data.to_typed()? {
        ArrayData::F64(v) => Ok(v),
        other => Err(RocError::Mismatch(format!(
            "expected f64 data, found {}",
            other.dtype().name()
        ))),
    }
}

fn i32_vec(data: &ArrayData) -> Result<Vec<i32>> {
    match data.to_typed()? {
        ArrayData::I32(v) => Ok(v),
        other => Err(RocError::Mismatch(format!(
            "expected i32 data, found {}",
            other.dtype().name()
        ))),
    }
}

/// Rebuild a [`PaneMesh`] from a serialized block.
pub fn mesh_from_block(block: &DataBlock) -> Result<PaneMesh> {
    let kind = block
        .attrs
        .get("mesh_kind")
        .ok_or_else(|| RocError::Corrupt(format!("block {} missing mesh_kind", block.id)))?
        .as_str()?;
    match kind {
        "structured" => {
            let ivec = |k: &str| -> Result<Vec<i64>> {
                match block.attrs.get(k) {
                    Some(AttrValue::IntVec(v)) => Ok(v.clone()),
                    _ => Err(RocError::Corrupt(format!("block {} missing {k}", block.id))),
                }
            };
            let fvec = |k: &str| -> Result<Vec<f64>> {
                match block.attrs.get(k) {
                    Some(AttrValue::FloatVec(v)) => Ok(v.clone()),
                    _ => Err(RocError::Corrupt(format!("block {} missing {k}", block.id))),
                }
            };
            let dims = ivec("dims")?;
            let origin = fvec("origin")?;
            let spacing = fvec("spacing")?;
            if dims.len() != 3 || origin.len() != 3 || spacing.len() != 3 {
                return Err(RocError::Corrupt("structured geometry must be 3-D".into()));
            }
            Ok(PaneMesh::Structured {
                dims: [dims[0] as usize, dims[1] as usize, dims[2] as usize],
                origin: [origin[0], origin[1], origin[2]],
                spacing: [spacing[0], spacing[1], spacing[2]],
            })
        }
        "unstructured" => {
            let nc = block.dataset("nc")?;
            let conn = block.dataset("conn")?;
            Ok(PaneMesh::Unstructured {
                coords: f64_vec(&nc.data)?,
                conn: i32_vec(&conn.data)?,
            })
        }
        other => Err(RocError::Corrupt(format!("unknown mesh kind '{other}'"))),
    }
}

/// Apply a serialized block back onto a window (restart / data exchange).
///
/// If the pane does not exist it is registered from the block's mesh (a
/// block may have migrated, or the restart may use a different processor
/// count than the writing run). Attribute buffers present in the block are
/// installed; declared attributes absent from the block keep their values.
pub fn apply_block(window: &mut Window, block: &DataBlock) -> Result<()> {
    if block.window != window.name() {
        return Err(RocError::Mismatch(format!(
            "block {} belongs to window '{}', not '{}'",
            block.id,
            block.window,
            window.name()
        )));
    }
    if window.pane(block.id).is_err() {
        let mesh = mesh_from_block(block)?;
        window.register_pane(block.id, mesh)?;
    } else if let PaneMesh::Unstructured { .. } = &window.pane(block.id)?.mesh {
        // Mesh may have moved (ALE): refresh coordinates when present.
        if let Ok(nc) = block.dataset("nc") {
            let coords = f64_vec(&nc.data)?;
            if let PaneMesh::Unstructured { coords: c, .. } =
                &mut window.pane_mut(block.id)?.mesh
            {
                if c.len() != coords.len() {
                    return Err(RocError::Mismatch(format!(
                        "block {}: coords length changed ({} -> {})",
                        block.id,
                        c.len(),
                        coords.len()
                    )));
                }
                *c = coords;
            }
        }
    }
    let schema: Vec<AttrSpec> = window.schema().to_vec();
    let pane = window.pane_mut(block.id)?;
    for spec in &schema {
        if let Ok(ds) = block.dataset(&spec.name) {
            // Panes hold typed buffers (solvers mutate them element-wise),
            // so a zero-copy `Shared` payload is decoded here — the single
            // typed boundary of the restart path, and its one copy: into
            // the pane's existing buffer when dtype and length match.
            let in_place = match ds.data.as_shared() {
                Some(src) => pane.data_mut(&spec.name)?.decode_shared_into(src),
                None => false,
            };
            if !in_place {
                pane.set_data(&spec.name, ds.data.to_typed()?)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocio_core::{BlockId, DType};
    use rocmesh::UnstructuredBlock;

    fn fluid_window() -> Window {
        let mut w = Window::new("fluid");
        w.declare_attr(AttrSpec::element("pressure", DType::F64, 1)).unwrap();
        w.declare_attr(AttrSpec::node("velocity", DType::F64, 3)).unwrap();
        w.register_pane(
            BlockId(4),
            PaneMesh::Structured {
                dims: [2, 2, 1],
                origin: [0.0; 3],
                spacing: [0.5; 3],
            },
        )
        .unwrap();
        w
    }

    fn solid_window() -> Window {
        let mut w = Window::new("solid");
        w.declare_attr(AttrSpec::node("disp", DType::F64, 3)).unwrap();
        let b = UnstructuredBlock::tet_box(BlockId(8), [1, 1, 2], [0.0; 3], [1.0; 3]);
        w.register_pane(BlockId(8), PaneMesh::from_unstructured(&b)).unwrap();
        w
    }

    #[test]
    fn all_serializes_mesh_and_attrs() {
        let w = fluid_window();
        let block = pane_to_block(&w, w.pane(BlockId(4)).unwrap(), &AttrRef::All).unwrap();
        let names: Vec<&str> = block.datasets.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["nc", "pressure", "velocity"]);
        assert_eq!(block.dataset("nc").unwrap().shape, vec![18, 3]);
        assert_eq!(block.dataset("velocity").unwrap().shape, vec![18, 3]);
        assert_eq!(block.dataset("pressure").unwrap().shape, vec![4]);
        assert_eq!(block.attrs["mesh_kind"].as_str().unwrap(), "structured");
    }

    #[test]
    fn mesh_selector_serializes_only_mesh() {
        let w = solid_window();
        let block = pane_to_block(&w, w.pane(BlockId(8)).unwrap(), &AttrRef::Mesh).unwrap();
        let names: Vec<&str> = block.datasets.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["nc", "conn"]);
    }

    #[test]
    fn named_selector_serializes_one_attr_without_mesh() {
        let w = fluid_window();
        let block = pane_to_block(
            &w,
            w.pane(BlockId(4)).unwrap(),
            &AttrRef::Named("pressure".into()),
        )
        .unwrap();
        let names: Vec<&str> = block.datasets.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["pressure"]);
        assert!(pane_to_block(
            &w,
            w.pane(BlockId(4)).unwrap(),
            &AttrRef::Named("ghost".into())
        )
        .is_err());
    }

    #[test]
    fn round_trip_through_apply_block() {
        let mut w = fluid_window();
        w.pane_mut(BlockId(4))
            .unwrap()
            .data_mut("pressure")
            .unwrap()
            .as_f64_mut()
            .unwrap()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let block = pane_to_block(&w, w.pane(BlockId(4)).unwrap(), &AttrRef::All).unwrap();

        // Fresh window (restart): same schema, no panes yet.
        let mut w2 = Window::new("fluid");
        w2.declare_attr(AttrSpec::element("pressure", DType::F64, 1)).unwrap();
        w2.declare_attr(AttrSpec::node("velocity", DType::F64, 3)).unwrap();
        apply_block(&mut w2, &block).unwrap();
        assert_eq!(
            w2.pane(BlockId(4)).unwrap().data("pressure").unwrap().as_f64().unwrap(),
            &[1.0, 2.0, 3.0, 4.0]
        );
        assert_eq!(w2.pane(BlockId(4)).unwrap().mesh, w.pane(BlockId(4)).unwrap().mesh);
    }

    #[test]
    fn unstructured_round_trip_preserves_connectivity() {
        let w = solid_window();
        let block = pane_to_block(&w, w.pane(BlockId(8)).unwrap(), &AttrRef::All).unwrap();
        let mesh = mesh_from_block(&block).unwrap();
        assert_eq!(mesh, w.pane(BlockId(8)).unwrap().mesh);
    }

    #[test]
    fn apply_block_installs_shared_payloads_as_typed() {
        // Blocks delivered by the zero-copy read path carry
        // `ArrayData::Shared` windows; installing them must land typed
        // buffers the solver can mutate element-wise.
        let w = solid_window();
        let block = pane_to_block(&w, w.pane(BlockId(8)).unwrap(), &AttrRef::All).unwrap();
        let mut shared_block = DataBlock::new(block.id, block.window.clone());
        shared_block.attrs = block.attrs.clone();
        for ds in &block.datasets {
            let mut bytes = Vec::new();
            ds.data.to_le_bytes(&mut bytes);
            let shared = ArrayData::Shared(
                rocio_core::SharedArray::new(
                    ds.data.dtype(),
                    ds.data.len(),
                    bytes::Bytes::from(bytes),
                )
                .unwrap(),
            );
            let mut copy = Dataset::new(ds.name.clone(), ds.shape.clone(), shared).unwrap();
            copy.attrs = ds.attrs.clone();
            shared_block.push_dataset(copy).unwrap();
        }
        let mut w2 = Window::new("solid");
        w2.declare_attr(AttrSpec::node("disp", DType::F64, 3)).unwrap();
        apply_block(&mut w2, &shared_block).unwrap();
        assert_eq!(w2.pane(BlockId(8)).unwrap().mesh, w.pane(BlockId(8)).unwrap().mesh);
        // Typed after install: element-wise mutation must work.
        let disp = w2.pane_mut(BlockId(8)).unwrap().data_mut("disp").unwrap();
        disp.as_f64_mut().unwrap()[0] = 1.5;
        let buf = disp.as_f64().unwrap().as_ptr();
        // Restoring onto the existing pane decodes into its buffer.
        apply_block(&mut w2, &shared_block).unwrap();
        let disp = w2.pane(BlockId(8)).unwrap().data("disp").unwrap();
        assert_eq!(disp.as_f64().unwrap().as_ptr(), buf, "no replacement buffer");
        assert_eq!(disp, w.pane(BlockId(8)).unwrap().data("disp").unwrap());
    }

    #[test]
    fn apply_block_rejects_wrong_window() {
        let w = fluid_window();
        let block = pane_to_block(&w, w.pane(BlockId(4)).unwrap(), &AttrRef::All).unwrap();
        let mut other = Window::new("solid");
        assert!(matches!(
            apply_block(&mut other, &block),
            Err(RocError::Mismatch(_))
        ));
    }

    #[test]
    fn apply_block_refreshes_moved_coords() {
        let mut w = solid_window();
        let mut block = pane_to_block(&w, w.pane(BlockId(8)).unwrap(), &AttrRef::All).unwrap();
        // Move the mesh in the serialized copy.
        block
            .dataset_mut("nc")
            .unwrap()
            .data
            .as_f64_mut()
            .unwrap()[0] = 99.0;
        apply_block(&mut w, &block).unwrap();
        match &w.pane(BlockId(8)).unwrap().mesh {
            PaneMesh::Unstructured { coords, .. } => assert_eq!(coords[0], 99.0),
            _ => panic!("expected unstructured"),
        }
    }

    #[test]
    fn window_to_blocks_covers_all_panes() {
        let mut w = fluid_window();
        w.register_pane(
            BlockId(9),
            PaneMesh::Structured {
                dims: [1, 1, 1],
                origin: [0.0; 3],
                spacing: [1.0; 3],
            },
        )
        .unwrap();
        let blocks = window_to_blocks(&w, &AttrRef::All).unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].id, BlockId(4));
        assert_eq!(blocks[1].id, BlockId(9));
    }

    #[test]
    fn corrupt_blocks_rejected() {
        let w = fluid_window();
        let mut block = pane_to_block(&w, w.pane(BlockId(4)).unwrap(), &AttrRef::All).unwrap();
        block.attrs.remove("mesh_kind");
        assert!(mesh_from_block(&block).is_err());
        let mut b2 = pane_to_block(&w, w.pane(BlockId(4)).unwrap(), &AttrRef::All).unwrap();
        b2.attrs.insert("mesh_kind".into(), "hexdominant".into());
        assert!(mesh_from_block(&b2).is_err());
    }
}
