//! Row operators: the classical selection and join toolbox.
//!
//! All operators work on a lightweight `(columns, rows)` representation where
//! columns are identified by `(table, col)` pairs from the analyzed query, so
//! intermediate results of multi-table plans can name their provenance. Two
//! consumers share them: the row-store baseline (`vcsql-baseline`, the
//! correctness oracle) and the Spark shuffle model (`vcsql-dist`), whose
//! exchange sizes are these operators' exact cardinalities.

use crate::analyze::Analyzed;
use vcsql_relation::expr::{BoundExpr, ColRef, Expr, Predicate};
use vcsql_relation::{Database, RelError, Tuple, Value};

type Result<T> = std::result::Result<T, RelError>;

/// A column of an intermediate result: `(table index, column index)` from the
/// analyzed query's FROM list.
pub type ColId = (usize, usize);

/// An intermediate result: a bag of rows with provenance-tagged columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Inter {
    pub cols: Vec<ColId>,
    pub rows: Vec<Vec<Value>>,
}

impl Inter {
    /// Build from a base relation's tuples (table index `t`).
    pub fn from_relation(t: usize, arity: usize, tuples: &[Tuple]) -> Inter {
        Inter {
            cols: (0..arity).map(|c| (t, c)).collect(),
            rows: tuples.iter().map(|tp| tp.0.to_vec()).collect(),
        }
    }

    /// Index of a column.
    pub fn col_index(&self, c: ColId) -> Result<usize> {
        self.cols
            .iter()
            .position(|&x| x == c)
            .ok_or_else(|| RelError::Other(format!("column {c:?} not in intermediate result")))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Keep rows satisfying `pred`.
    pub fn filter(mut self, mut pred: impl FnMut(&[Value]) -> Result<bool>) -> Result<Inter> {
        let mut err = None;
        self.rows.retain(|r| match pred(r) {
            Ok(keep) => keep,
            Err(e) => {
                err.get_or_insert(e);
                false
            }
        });
        match err {
            Some(e) => Err(e),
            None => Ok(self),
        }
    }
}

impl Analyzed {
    /// Table `t` of `db` with its pushed-down filters applied.
    pub fn scan(&self, t: usize, db: &Database) -> Result<Inter> {
        let binding = &self.tables[t];
        let rel = db.get(&binding.relation)?;
        let mut inter = Inter::from_relation(t, binding.schema.arity(), &rel.tuples);
        for f in &binding.filters {
            let pred = Predicate::new(self.bind_to_table(t, f)?);
            inter = inter.filter(|row| pred.passes(row))?;
        }
        Ok(inter)
    }

    /// Bind an (alias-qualified) expression against an intermediate layout.
    pub fn bind_to_layout(&self, e: &Expr, layout: &[ColId]) -> Result<BoundExpr> {
        e.bind(&|c: &ColRef| {
            let tc = self.resolve(c)?;
            layout
                .iter()
                .position(|&x| x == tc)
                .ok_or_else(|| RelError::Other(format!("column {c} not in intermediate layout")))
        })
    }

    /// The equi-join pairs connecting the tables marked in `joined` to table
    /// `next`, oriented `(joined column, next column)`, in `joins` order.
    pub fn join_pairs(&self, joined: &[bool], next: usize) -> Vec<(ColId, ColId)> {
        self.joins
            .iter()
            .filter_map(|j| {
                if joined[j.left.0] && j.right.0 == next {
                    Some((j.left, j.right))
                } else if joined[j.right.0] && j.left.0 == next {
                    Some((j.right, j.left))
                } else {
                    None
                }
            })
            .collect()
    }
}

/// Hash join `left ⋈ right` on the given column pairs (equi-join; NULL keys
/// never match, per SQL).
pub fn hash_join(left: &Inter, right: &Inter, on: &[(ColId, ColId)]) -> Result<Inter> {
    let lkeys: Vec<usize> = on.iter().map(|&(l, _)| left.col_index(l)).collect::<Result<_>>()?;
    let rkeys: Vec<usize> = on.iter().map(|&(_, r)| right.col_index(r)).collect::<Result<_>>()?;
    // Build on the smaller side.
    let (build, probe, bkeys, pkeys, build_is_left) = if left.len() <= right.len() {
        (left, right, &lkeys, &rkeys, true)
    } else {
        (right, left, &rkeys, &lkeys, false)
    };
    let mut table: vcsql_relation::FxHashMap<Vec<Value>, Vec<usize>> =
        vcsql_relation::fx::map_with_capacity(build.len());
    'rows: for (i, row) in build.rows.iter().enumerate() {
        let mut key = Vec::with_capacity(bkeys.len());
        for &k in bkeys {
            if row[k].is_null() {
                continue 'rows;
            }
            key.push(row[k].clone());
        }
        table.entry(key).or_default().push(i);
    }
    let mut out = Inter {
        cols: left.cols.iter().chain(right.cols.iter()).copied().collect(),
        rows: Vec::new(),
    };
    let mut key = Vec::with_capacity(pkeys.len());
    'probe: for prow in &probe.rows {
        key.clear();
        for &k in pkeys {
            if prow[k].is_null() {
                continue 'probe;
            }
            key.push(prow[k].clone());
        }
        if let Some(matches) = table.get(&key) {
            for &bi in matches {
                let brow = &build.rows[bi];
                let mut row = Vec::with_capacity(left.cols.len() + right.cols.len());
                if build_is_left {
                    row.extend_from_slice(brow);
                    row.extend_from_slice(prow);
                } else {
                    row.extend_from_slice(prow);
                    row.extend_from_slice(brow);
                }
                out.rows.push(row);
            }
        }
    }
    Ok(out)
}

/// Sort-merge join on the given column pairs (the classic RDBMS
/// alternative), sorting both sides by their composite key.
pub fn sort_merge_join(left: &Inter, right: &Inter, on: &[(ColId, ColId)]) -> Result<Inter> {
    let lkeys: Vec<usize> = on.iter().map(|&(l, _)| left.col_index(l)).collect::<Result<_>>()?;
    let rkeys: Vec<usize> = on.iter().map(|&(_, r)| right.col_index(r)).collect::<Result<_>>()?;
    let key_of = |row: &Vec<Value>, keys: &[usize]| -> Option<Vec<Value>> {
        let mut k = Vec::with_capacity(keys.len());
        for &i in keys {
            if row[i].is_null() {
                return None;
            }
            k.push(row[i].clone());
        }
        Some(k)
    };
    let mut ls: Vec<(Vec<Value>, &Vec<Value>)> =
        left.rows.iter().filter_map(|r| key_of(r, &lkeys).map(|k| (k, r))).collect();
    let mut rs: Vec<(Vec<Value>, &Vec<Value>)> =
        right.rows.iter().filter_map(|r| key_of(r, &rkeys).map(|k| (k, r))).collect();
    ls.sort_by(|a, b| a.0.cmp(&b.0));
    rs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = Inter {
        cols: left.cols.iter().chain(right.cols.iter()).copied().collect(),
        rows: Vec::new(),
    };
    let (mut i, mut j) = (0, 0);
    while i < ls.len() && j < rs.len() {
        match ls[i].0.cmp(&rs[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // find the equal runs
                let ie = ls[i..].partition_point(|x| x.0 == ls[i].0) + i;
                let je = rs[j..].partition_point(|x| x.0 == rs[j].0) + j;
                for l in &ls[i..ie] {
                    for r in &rs[j..je] {
                        let mut row = l.1.clone();
                        row.extend_from_slice(r.1);
                        out.rows.push(row);
                    }
                }
                i = ie;
                j = je;
            }
        }
    }
    Ok(out)
}

/// Cartesian product.
pub fn cross_join(left: &Inter, right: &Inter) -> Inter {
    let mut out = Inter {
        cols: left.cols.iter().chain(right.cols.iter()).copied().collect(),
        rows: Vec::with_capacity(left.len() * right.len()),
    };
    for l in &left.rows {
        for r in &right.rows {
            let mut row = l.clone();
            row.extend_from_slice(r);
            out.rows.push(row);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inter(t: usize, rows: Vec<Vec<i64>>) -> Inter {
        Inter {
            cols: (0..rows.first().map_or(0, Vec::len)).map(|c| (t, c)).collect(),
            rows: rows.into_iter().map(|r| r.into_iter().map(Value::Int).collect()).collect(),
        }
    }

    /// The brute-force oracle of `hash_join_matches_nested_loop`.
    fn nested_loop_join(
        left: &Inter,
        right: &Inter,
        mut pred: impl FnMut(&[Value], &[Value]) -> Result<bool>,
    ) -> Result<Inter> {
        let mut out = Inter {
            cols: left.cols.iter().chain(right.cols.iter()).copied().collect(),
            rows: Vec::new(),
        };
        for l in &left.rows {
            for r in &right.rows {
                if pred(l, r)? {
                    let mut row = l.clone();
                    row.extend_from_slice(r);
                    out.rows.push(row);
                }
            }
        }
        Ok(out)
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        let l = inter(0, vec![vec![1, 10], vec![2, 20], vec![2, 21], vec![3, 30]]);
        let r = inter(1, vec![vec![2, 200], vec![3, 300], vec![3, 301], vec![4, 400]]);
        let on = [((0, 0), (1, 0))];
        let h = hash_join(&l, &r, &on).unwrap();
        let s = sort_merge_join(&l, &r, &on).unwrap();
        let n = nested_loop_join(&l, &r, |a, b| Ok(a[0].sql_eq(&b[0]) == Some(true))).unwrap();
        let norm = |mut i: Inter| {
            i.rows.sort();
            i.rows
        };
        assert_eq!(norm(h.clone()), norm(n));
        assert_eq!(norm(h), norm(s));
    }

    #[test]
    fn null_keys_never_match() {
        let mut l = inter(0, vec![vec![1, 10]]);
        l.rows.push(vec![Value::Null, Value::Int(99)]);
        let mut r = inter(1, vec![vec![1, 100]]);
        r.rows.push(vec![Value::Null, Value::Int(88)]);
        let on = [((0, 0), (1, 0))];
        assert_eq!(hash_join(&l, &r, &on).unwrap().len(), 1);
        assert_eq!(sort_merge_join(&l, &r, &on).unwrap().len(), 1);
    }

    #[test]
    fn multi_key_join() {
        let l = inter(0, vec![vec![1, 1, 7], vec![1, 2, 8]]);
        let r = inter(1, vec![vec![1, 1, 9], vec![1, 3, 9]]);
        let on = [((0, 0), (1, 0)), ((0, 1), (1, 1))];
        let j = hash_join(&l, &r, &on).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.rows[0][2], Value::Int(7));
    }

    #[test]
    fn cross_join_cardinality() {
        let l = inter(0, vec![vec![1], vec![2]]);
        let r = inter(1, vec![vec![3], vec![4], vec![5]]);
        assert_eq!(cross_join(&l, &r).len(), 6);
    }
}
