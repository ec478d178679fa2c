//! The batch basis kernel against the scalar oracle, bit for bit.
//!
//! `FluxModel::basis_columns` must return exactly what `FluxModel::basis`
//! returns for every sink/node pair: the tracker's rankings compare these
//! floats, and the golden fixtures pin them. The cases lean on the
//! kernel's selects: a node on the sink (the `d_floor` clamp and the
//! `EPSILON` direction fallback), sinks on and just outside the field,
//! axis-parallel rays, nodes on the boundary, more nodes than one block,
//! and the non-`Rect` boundaries that take the trait's scalar default.

use fluxprint_fluxmodel::FluxModel;
use fluxprint_geometry::{Boundary, Circle, ConvexPolygon, Point2, Rect, EPSILON};
use proptest::prelude::*;

const SIDE: f64 = 30.0;

/// A coordinate in the field, or pinned to an edge, just inside or just
/// outside it (`mode` picks which).
fn coordinate(mode: usize, u: f64) -> f64 {
    match mode {
        0 => 0.0,
        1 => SIDE,
        2 => SIDE + EPSILON / 2.0,
        3 => -1e-6,
        4 => SIDE + 0.5,
        _ => u * SIDE,
    }
}

/// A sink: mostly interior, sometimes on or past an edge.
fn sink() -> impl Strategy<Value = Point2> {
    ((0..14usize, 0..14usize), (0.0..1.0, 0.0..1.0))
        .prop_map(|((mx, my), (u, v))| Point2::new(coordinate(mx, u), coordinate(my, v)))
}

/// Nodes around `sink`: random field points plus the special cases.
fn nodes_around(sink: Point2, field: &[(f64, f64)]) -> Vec<Point2> {
    let mut nodes: Vec<Point2> = field
        .iter()
        .map(|&(u, v)| Point2::new(u * SIDE, v * SIDE))
        .collect();
    nodes.extend([
        sink,                                                        // on the sink
        Point2::new(sink.x + EPSILON / 4.0, sink.y),                 // within EPSILON
        Point2::new(sink.x, sink.y + 0.7),                           // dx = 0
        Point2::new(sink.x - 3.0, sink.y),                           // dy = 0
        Point2::new(sink.x + 0.3, sink.y - 0.3),                     // inside d_floor
        Point2::new(0.0, field.first().map_or(5.0, |p| p.1 * SIDE)), // on an edge
        Point2::new(SIDE, SIDE),                                     // on a corner
    ]);
    nodes
}

fn boundaries() -> Vec<Box<dyn Boundary>> {
    vec![
        Box::new(Rect::square(SIDE).unwrap()),
        Box::new(Circle::new(Point2::new(15.0, 15.0), 15.0).unwrap()),
        Box::new(
            ConvexPolygon::new(vec![
                Point2::new(0.0, 0.0),
                Point2::new(30.0, 0.0),
                Point2::new(30.0, 20.0),
                Point2::new(15.0, 30.0),
                Point2::new(0.0, 20.0),
            ])
            .unwrap(),
        ),
    ]
}

/// Asserts the kernel's column for each sink equals the scalar basis bit
/// for bit, and that the column and design-matrix wrappers agree too.
fn check(
    model: &FluxModel,
    sinks: &[Point2],
    nodes: &[Point2],
    boundary: &dyn Boundary,
) -> Result<(), TestCaseError> {
    let n = nodes.len();
    let xs: Vec<f64> = nodes.iter().map(|p| p.x).collect();
    let ys: Vec<f64> = nodes.iter().map(|p| p.y).collect();
    let mut cols = vec![f64::NAN; sinks.len() * n];
    model.basis_columns(sinks, &xs, &ys, boundary, &mut cols);
    let matrix = model.design_matrix(nodes, sinks, boundary);
    let mut single = vec![f64::NAN; n];
    for (j, &sink) in sinks.iter().enumerate() {
        model.basis_column_into(nodes, sink, boundary, &mut single);
        for (i, &node) in nodes.iter().enumerate() {
            let want = model.basis(sink, node, boundary).to_bits();
            prop_assert_eq!(
                cols[j * n + i].to_bits(),
                want,
                "{:?}: sink {} node {}",
                boundary,
                sink,
                node
            );
            prop_assert_eq!(single[i].to_bits(), want);
            prop_assert_eq!(matrix[(i, j)].to_bits(), want);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One sink against a block-sized spread of nodes, on every boundary.
    #[test]
    fn kernel_matches_scalar_basis(
        s in sink(),
        field in proptest::collection::vec((0.0..1.0, 0.0..1.0), 1..40),
        floor in 0.05..2.0f64,
    ) {
        let model = FluxModel::new(floor);
        let nodes = nodes_around(s, &field);
        for boundary in boundaries() {
            check(&model, &[s], &nodes, boundary.as_ref())?;
        }
    }

    /// Several sinks in one call over more nodes than one block holds.
    #[test]
    fn kernel_matches_scalar_across_blocks_and_sinks(
        a in sink(),
        b in sink(),
        field in proptest::collection::vec((0.0..1.0, 0.0..1.0), 120..300),
    ) {
        let model = FluxModel::default();
        let nodes = nodes_around(a, &field);
        for boundary in boundaries() {
            check(&model, &[a, b, a], &nodes, boundary.as_ref())?;
        }
    }
}
