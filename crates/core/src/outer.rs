//! Two-way outer joins (paper Section 7).
//!
//! Built on the two-way join protocol: a `B`-attribute vertex participates
//! when it has a left edge (LEFT JOIN), a right edge (RIGHT JOIN), or either
//! (FULL JOIN — the reduction phase is skipped entirely, as the paper says,
//! because dangling tuples of both sides belong to the output). Tuples whose
//! counterpart side is empty are padded with NULLs. Tuples whose own join
//! value is NULL never reach an attribute vertex; the preserved sides pick
//! them up host-side with NULL padding.

use crate::table::{ColKey, Table};
use crate::twoway::{two_way_join, TwoWaySpec};
use vcsql_bsp::{EngineConfig, RunStats};
use vcsql_relation::{RelError, Value};
use vcsql_tag::TagGraph;

type Result<T> = std::result::Result<T, RelError>;

/// Outer-join flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OuterKind {
    Left,
    Right,
    Full,
}

/// Compute a two-way outer join; the output table's columns are the
/// requested output columns of both sides (left = table 0, right = 1),
/// padded with NULLs on the preserved side.
pub fn outer_join(
    tag: &TagGraph,
    config: EngineConfig,
    spec: &TwoWaySpec<'_>,
    kind: OuterKind,
) -> Result<(Table, RunStats)> {
    // Inner part via the Section 4 protocol.
    let inner = two_way_join(tag, config, spec)?;
    let mut out = inner.expand();
    let stats = inner.stats;

    let lschema = tag
        .schema(spec.left)
        .ok_or_else(|| RelError::UnknownRelation(spec.left.to_string()))?
        .clone();
    let rschema = tag
        .schema(spec.right)
        .ok_or_else(|| RelError::UnknownRelation(spec.right.to_string()))?
        .clone();

    // Column layout of the expanded inner join (may be empty if no rows
    // joined; rebuild it deterministically).
    let mut layout: Vec<ColKey> = Vec::new();
    for (i, _) in spec.on.iter().enumerate().skip(1) {
        layout.push(ColKey::Var(i as u32));
    }
    for (side, cols, schema) in
        [(0u16, &spec.left_out, &lschema), (1u16, &spec.right_out, &rschema)]
    {
        for c in cols.iter() {
            layout.push(ColKey::Col { table: side, col: schema.column_index(c)? as u16 });
        }
    }
    layout.sort_unstable();
    layout.dedup();
    if out.cols.is_empty() {
        out = Table::empty(layout.clone());
    }

    // Which join keys matched (to find dangling tuples host-side). Matching
    // keys are exactly the surviving factorized groups' join values plus
    // companions; recompute per preserved tuple by probing the other side.
    let matched_left: vcsql_relation::FxHashSet<Vec<Value>> = inner
        .groups
        .iter()
        .flat_map(|g| {
            g.left.iter().map(move |r| {
                let mut k = vec![g.join_value.clone()];
                for (i, _) in spec.on.iter().enumerate().skip(1) {
                    k.push(r.get(g.left.col_index(ColKey::Var(i as u32)).unwrap()).clone());
                }
                k
            })
        })
        .collect();
    let matched_right: vcsql_relation::FxHashSet<Vec<Value>> = inner
        .groups
        .iter()
        .flat_map(|g| {
            g.right.iter().map(move |r| {
                let mut k = vec![g.join_value.clone()];
                for (i, _) in spec.on.iter().enumerate().skip(1) {
                    k.push(r.get(g.right.col_index(ColKey::Var(i as u32)).unwrap()).clone());
                }
                k
            })
        })
        .collect();

    // Pad dangling tuples of the preserved side(s).
    let mut pad_side = |side: u16| -> Result<()> {
        let (rel, schema, on_cols, out_cols, matched) = if side == 0 {
            (spec.left, &lschema, &spec.on, &spec.left_out, &matched_left)
        } else {
            (spec.right, &rschema, &spec.on, &spec.right_out, &matched_right)
        };
        let Some(label) = tag.relation_label(rel) else { return Ok(()) };
        for &v in tag.graph().vertices_with_label(label) {
            let Some(tuple) = tag.tuple(v) else { continue };
            let key: Vec<Value> = on_cols
                .iter()
                .map(|&(lc, rc)| {
                    let c = if side == 0 { lc } else { rc };
                    Ok::<Value, RelError>(tuple[schema.column_index(c)?].clone())
                })
                .collect::<Result<_>>()?;
            let dangling = key.iter().any(Value::is_null) || !matched.contains(&key);
            if !dangling {
                continue;
            }
            let mut row = vec![Value::Null; layout.len()];
            for c in out_cols.iter() {
                let ci = schema.column_index(c)? as u16;
                let pos = layout
                    .binary_search(&ColKey::Col { table: side, col: ci })
                    .expect("output column in layout");
                row[pos] = tuple[ci as usize].clone();
            }
            // Companion vars take the preserved side's values.
            for (i, &(lc, rc)) in on_cols.iter().enumerate().skip(1) {
                let c = if side == 0 { lc } else { rc };
                if let Ok(pos) = layout.binary_search(&ColKey::Var(i as u32)) {
                    row[pos] = tuple[schema.column_index(c)?].clone();
                }
            }
            out.push_row(row);
        }
        Ok(())
    };
    match kind {
        OuterKind::Left => pad_side(0)?,
        OuterKind::Right => pad_side(1)?,
        OuterKind::Full => {
            pad_side(0)?;
            pad_side(1)?;
        }
    }
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcsql_relation::schema::{Column, Schema};
    use vcsql_relation::{DataType, Database, Relation, Tuple};

    fn db() -> Database {
        let mut db = Database::new();
        let r = Relation::from_tuples(
            Schema::new(
                "R",
                vec![Column::new("a", DataType::Int), Column::new("b", DataType::Int)],
            ),
            vec![
                Tuple::new(vec![Value::Int(1), Value::Int(10)]),
                Tuple::new(vec![Value::Int(2), Value::Int(20)]),
                Tuple::new(vec![Value::Int(3), Value::Null]),
            ],
        )
        .unwrap();
        let s = Relation::from_tuples(
            Schema::new(
                "S",
                vec![Column::new("b", DataType::Int), Column::new("c", DataType::Int)],
            ),
            vec![
                Tuple::new(vec![Value::Int(10), Value::Int(100)]),
                Tuple::new(vec![Value::Int(10), Value::Int(101)]),
                Tuple::new(vec![Value::Int(30), Value::Int(300)]),
            ],
        )
        .unwrap();
        db.add(r);
        db.add(s);
        db
    }

    fn spec<'a>() -> TwoWaySpec<'a> {
        TwoWaySpec {
            left: "R",
            right: "S",
            on: vec![("b", "b")],
            left_out: vec!["a"],
            right_out: vec!["c"],
        }
    }

    #[test]
    fn left_outer() {
        let dbv = db();
        let tag = TagGraph::build(&dbv);
        let (t, _) =
            outer_join(&tag, EngineConfig::sequential(), &spec(), OuterKind::Left).unwrap();
        // Inner: (1,100), (1,101); dangling left: a=2 and a=3 (NULL key).
        assert_eq!(t.len(), 4);
        let nulls = t.iter().filter(|r| r.values().any(Value::is_null)).count();
        assert_eq!(nulls, 2);
    }

    #[test]
    fn right_outer() {
        let dbv = db();
        let tag = TagGraph::build(&dbv);
        let (t, _) =
            outer_join(&tag, EngineConfig::sequential(), &spec(), OuterKind::Right).unwrap();
        // Inner 2 rows + dangling right b=30.
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn full_outer() {
        let dbv = db();
        let tag = TagGraph::build(&dbv);
        let (t, _) =
            outer_join(&tag, EngineConfig::sequential(), &spec(), OuterKind::Full).unwrap();
        // Inner 2 + left dangling 2 + right dangling 1.
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn outer_join_with_no_matches_pads_everything() {
        let mut dbv = Database::new();
        dbv.add(
            Relation::from_tuples(
                Schema::new(
                    "R",
                    vec![Column::new("a", DataType::Int), Column::new("b", DataType::Int)],
                ),
                vec![Tuple::new(vec![Value::Int(1), Value::Int(7)])],
            )
            .unwrap(),
        );
        dbv.add(
            Relation::from_tuples(
                Schema::new(
                    "S",
                    vec![Column::new("b", DataType::Int), Column::new("c", DataType::Int)],
                ),
                vec![Tuple::new(vec![Value::Int(8), Value::Int(80)])],
            )
            .unwrap(),
        );
        let tag = TagGraph::build(&dbv);
        let (t, _) =
            outer_join(&tag, EngineConfig::sequential(), &spec(), OuterKind::Full).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.iter().all(|r| r.values().any(Value::is_null)));
    }
}
