//! Synthetic binary-relation instances for the algorithmic experiments:
//! two-way join cost-model checks (Section 4.1.2) and cycle queries
//! (Sections 6.1–6.2).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vcsql_relation::schema::{Column, Schema};
use vcsql_relation::{DataType, Database, Relation, Tuple, Value};

/// A binary relation `name(c0, c1)` with `rows` tuples over value domains of
/// the given sizes (uniform).
pub fn binary_relation(
    name: &str,
    rows: usize,
    domain0: i64,
    domain1: i64,
    rng: &mut StdRng,
) -> Relation {
    let schema =
        Schema::new(name, vec![Column::new("c0", DataType::Int), Column::new("c1", DataType::Int)]);
    let mut rel = Relation::empty(schema);
    for _ in 0..rows {
        rel.push(Tuple::new(vec![
            Value::Int(rng.gen_range(0..domain0)),
            Value::Int(rng.gen_range(0..domain1)),
        ]))
        .unwrap();
    }
    rel
}

/// Two relations `r(a, b)`, `s(b, c)` for two-way join experiments.
/// `selectivity` controls the shared `b` domain: small domains make dense
/// joins (OUT >> IN), large domains make selective joins (OUT << IN).
pub fn two_way_db(rows: usize, b_domain: i64, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let mut r = binary_relation("r", rows, rows as i64 * 4, b_domain, &mut rng);
    r.schema.name = "r".into();
    let mut r2 = Relation::empty(Schema::new(
        "r",
        vec![Column::new("a", DataType::Int), Column::new("b", DataType::Int)],
    ));
    r2.tuples = r.tuples;
    db.add(r2);
    let s = binary_relation("s_", rows, b_domain, rows as i64 * 4, &mut rng);
    let mut s2 = Relation::empty(Schema::new(
        "s",
        vec![Column::new("b", DataType::Int), Column::new("c", DataType::Int)],
    ));
    s2.tuples = s.tuples;
    db.add(s2);
    db
}

/// An `n`-cycle instance: relations `e0(x0, x1), e1(x1, x2), ..,
/// e{n-1}(x{n-1}, x0)` over a single node domain — the graph-style input of
/// the triangle/cycle experiments. `heavy_fraction` of the domain receives a
/// disproportionate share of tuples so the heavy/light split has real work.
pub fn cycle_db(n: usize, rows_per_relation: usize, domain: i64, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    for i in 0..n {
        let schema = Schema::new(
            format!("e{i}"),
            vec![Column::new("src", DataType::Int), Column::new("dst", DataType::Int)],
        );
        let mut rel = Relation::empty(schema);
        for _ in 0..rows_per_relation {
            // Skew: 30% of tuples touch the first 5% of the domain.
            let pick = |rng: &mut StdRng| {
                if rng.gen_bool(0.3) {
                    rng.gen_range(0..(domain / 20).max(1))
                } else {
                    rng.gen_range(0..domain)
                }
            };
            rel.push(Tuple::new(vec![Value::Int(pick(&mut rng)), Value::Int(pick(&mut rng))]))
                .unwrap();
        }
        db.add(rel);
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_way_db_shapes() {
        let db = two_way_db(500, 50, 1);
        assert_eq!(db.get("r").unwrap().len(), 500);
        assert_eq!(db.get("s").unwrap().len(), 500);
        assert_eq!(db.get("r").unwrap().schema.column_names().collect::<Vec<_>>(), vec!["a", "b"]);
    }

    #[test]
    fn cycle_db_shapes() {
        let db = cycle_db(3, 200, 100, 2);
        assert_eq!(db.len(), 3);
    }
}
