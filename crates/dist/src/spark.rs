//! A Spark-like shuffle-join network-cost model (the paper's Section 8.6
//! baseline).
//!
//! Spark executes a join tree as a sequence of exchanges: each shuffle join
//! hash-partitions both inputs on the join key (every tuple moves to the
//! machine owning its key's hash — an expected `(m-1)/m` of all bytes cross
//! the network), unless one side is small enough to broadcast (its bytes are
//! replicated to the other `m-1` machines). An input already partitioned on
//! the join key — the output of the previous shuffle on the same key — is
//! *not* re-shuffled, mirroring Spark's `outputPartitioning` reuse.
//!
//! The model executes the query plan for real (filters pushed below the
//! exchange, exact intermediate cardinalities via in-memory hash joins,
//! residual predicates applied as soon as their tables are joined) so the
//! byte counts reflect true data sizes rather than estimates; only the
//! *placement* of tuples is modelled statistically.

use crate::netstats::{unsafe_row_bytes, NetStats};
use vcsql_query::analyze::{Analyzed, TableBinding};
use vcsql_query::lower_subquery;
use vcsql_relation::expr::{BoundExpr, ColRef, Expr};
use vcsql_relation::{Database, FxHashMap, FxHashSet, RelError, Value};

type Result<T> = std::result::Result<T, RelError>;

/// One equi-join equality: `(left (table, col), right (table, col))`.
type EquiKey = ((usize, usize), (usize, usize));

/// Cluster parameters of the modelled Spark deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparkModel {
    /// Number of machines in the simulated cluster.
    pub machines: usize,
    /// Inputs at or below this many bytes are broadcast instead of shuffled
    /// (Spark's `autoBroadcastJoinThreshold`). `0` disables broadcasting.
    pub broadcast_threshold: u64,
}

impl Default for SparkModel {
    fn default() -> SparkModel {
        // The paper's cluster has 6 machines. Broadcasting is disabled by
        // default: at the paper's scale no join input fits under Spark's
        // 10 MiB broadcast threshold, so its measured traffic is
        // shuffle-dominated — while at this reproduction's laptop scale
        // *every* table would fit, which would silently model a different
        // (broadcast-join) plan than the one the paper compares against.
        // Set `broadcast_threshold` explicitly to study broadcasting.
        SparkModel { machines: 6, broadcast_threshold: 0 }
    }
}

/// An intermediate result: rows over a set of `(table, column)` positions,
/// remembering which key it is currently hash-partitioned on.
struct Inter {
    /// `(table, col)` provenance of each position.
    cols: Vec<(usize, usize)>,
    rows: Vec<Box<[Value]>>,
    /// Tables folded in so far.
    tables: FxHashSet<usize>,
    /// The (sorted) key columns this intermediate is hash-partitioned on,
    /// if any.
    part_key: Option<Vec<(usize, usize)>>,
}

impl Inter {
    fn bytes(&self) -> u64 {
        self.rows.iter().map(|r| unsafe_row_bytes(r)).sum()
    }

    fn pos(&self, key: (usize, usize)) -> Option<usize> {
        self.cols.iter().position(|&c| c == key)
    }
}

impl SparkModel {
    /// Modelled network traffic of running `a` over `db` on this cluster.
    ///
    /// Subqueries contribute their own (recursively modelled) traffic, but
    /// their filtering effect on the outer intermediates is NOT applied —
    /// the outer plan is modelled as if the subquery predicate were checked
    /// after the joins. That matches where Spark typically places
    /// non-pushable subquery filters, but it does mean subquery-heavy
    /// queries are charged somewhat more here than a Spark run that manages
    /// to push the semi-join below an exchange would be; read per-query
    /// numbers on such queries with that bias in mind.
    pub fn run(&self, a: &Analyzed, db: &Database) -> Result<NetStats> {
        assert!(self.machines >= 1, "cluster needs at least one machine");
        let mut net = NetStats::default();

        // Subqueries run first (Spark plans them as separate stages), in
        // their lowered form — e.g. a correlated scalar subquery becomes an
        // aggregate grouped by the correlation key, exactly the shape both
        // real engines execute.
        for sq in &a.subqueries {
            net.absorb(&self.run(&lower_subquery(sq).sub, db)?);
        }

        if a.tables.is_empty() {
            return Ok(net);
        }

        // Scan + filter each input below any exchange (predicate pushdown).
        let mut scans: Vec<Inter> = Vec::with_capacity(a.tables.len());
        for (t, binding) in a.tables.iter().enumerate() {
            scans.push(scan(a, db, t, binding)?);
        }

        // Canonical representative per join-equivalence class of columns,
        // so partitioning reuse sees through transitive key equality (after
        // joining on `t1.k = t2.k`, an intermediate partitioned on either
        // column satisfies a later `t2.k = t3.k` shuffle requirement).
        let canon = join_column_classes(&a.joins);

        // Left-deep join order: start at table 0, repeatedly fold in a table
        // connected to the current intermediate by at least one equi-join
        // predicate; disconnected tables come last as cartesian products.
        let mut current = scans.remove(0);
        let mut remaining: Vec<(usize, Inter)> = (1..a.tables.len()).zip(scans).collect();
        let mut residual_applied = vec![false; a.residual.len()];

        while !remaining.is_empty() {
            let pick = remaining
                .iter()
                .position(|(t, _)| {
                    a.joins.iter().any(|j| {
                        (current.tables.contains(&j.left.0) && j.right.0 == *t)
                            || (current.tables.contains(&j.right.0) && j.left.0 == *t)
                    })
                })
                .unwrap_or(0);
            let (t, right) = remaining.remove(pick);

            // All equi-join predicates connecting `t` to the current side,
            // oriented as (current column, right column).
            let mut keys: Vec<((usize, usize), (usize, usize))> = Vec::new();
            for j in &a.joins {
                if current.tables.contains(&j.left.0) && j.right.0 == t {
                    keys.push((j.left, j.right));
                } else if current.tables.contains(&j.right.0) && j.left.0 == t {
                    keys.push((j.right, j.left));
                }
            }
            keys.sort();
            keys.dedup();

            current = self.exchange_and_join(current, right, &keys, &canon, &mut net);

            // Residual predicates whose tables are now all present filter the
            // intermediate (once) before it is shipped again.
            for (e, applied) in a.residual.iter().zip(&mut residual_applied) {
                if *applied {
                    continue;
                }
                if let Some(bound) = bind_if_covered(e, a, &current)? {
                    let mut kept = Vec::with_capacity(current.rows.len());
                    for r in current.rows.drain(..) {
                        if bound.passes(&r)? {
                            kept.push(r);
                        }
                    }
                    current.rows = kept;
                    *applied = true;
                }
            }
        }

        // Final aggregation exchange: partial aggregates are combined by a
        // hash exchange on the group key (or a single-partition exchange for
        // scalar aggregates, whose partials are one tiny row per machine).
        if !a.group_by.is_empty() {
            let key_pos: Vec<usize> =
                a.group_by.iter().filter_map(|&(t, c)| current.pos((t, c))).collect();
            let mut groups: FxHashSet<Vec<Value>> = FxHashSet::default();
            let mut distinct_key_bytes = 0u64;
            for r in &current.rows {
                let key: Vec<Value> = key_pos.iter().map(|&p| r[p].clone()).collect();
                let key_bytes = unsafe_row_bytes(&key);
                if groups.insert(key) {
                    distinct_key_bytes += key_bytes;
                }
            }
            if !groups.is_empty() {
                // Partial aggregation caps the exchange at one partial per
                // (group, machine) — but never more partials than input rows
                // (each machine only has partials for groups it saw).
                let partials =
                    (groups.len() as u64 * self.machines as u64).min(current.rows.len() as u64);
                let partial_bytes =
                    distinct_key_bytes / groups.len() as u64 + 8 * a.items.len() as u64;
                net.record_exchange(
                    self.cross_fraction(partials),
                    self.cross_fraction(partials * partial_bytes),
                );
            }
        } else if a.has_aggregates() {
            // Scalar: one partial row per machine to the driver.
            net.record_exchange(
                self.machines as u64 - 1,
                (self.machines as u64 - 1) * 8 * a.items.len() as u64,
            );
        }

        Ok(net)
    }

    /// Expected share of `bytes` that crosses machines in a hash exchange.
    fn cross_fraction(&self, bytes: u64) -> u64 {
        if self.machines <= 1 {
            return 0;
        }
        bytes * (self.machines as u64 - 1) / self.machines as u64
    }

    /// Charge the exchange for one join and compute its result.
    ///
    /// Partition keys are tracked as canonical join-class representatives
    /// (see [`join_column_classes`]), so an intermediate partitioned on
    /// either side of an earlier equi-join counts as partitioned on both.
    fn exchange_and_join(
        &self,
        left: Inter,
        right: Inter,
        keys: &[EquiKey],
        canon: &FxHashMap<(usize, usize), (usize, usize)>,
        net: &mut NetStats,
    ) -> Inter {
        let (lbytes, rbytes) = (left.bytes(), right.bytes());
        let (lrows, rrows) = (left.rows.len() as u64, right.rows.len() as u64);
        let cross = keys.is_empty();

        let small_enough = |b: u64| self.broadcast_threshold > 0 && b <= self.broadcast_threshold;
        // Cartesian products always broadcast the smaller side (Spark's
        // BroadcastNestedLoopJoin); equi-joins broadcast below the threshold.
        let broadcast_right = (cross || small_enough(rbytes)) && rbytes <= lbytes;
        let broadcast_left = !broadcast_right && (cross || small_enough(lbytes));

        // Both sides of each predicate share a class, so one canonical key
        // describes the exchange requirement for both inputs.
        let canon_of = |col: (usize, usize)| canon.get(&col).copied().unwrap_or(col);
        let join_key: Vec<(usize, usize)> = {
            let mut k: Vec<(usize, usize)> = keys.iter().map(|&(l, _)| canon_of(l)).collect();
            k.sort();
            k.dedup();
            k
        };

        let part_key = if broadcast_right {
            net.record_exchange(
                rrows * (self.machines as u64 - 1),
                rbytes * (self.machines as u64 - 1),
            );
            left.part_key.clone() // big side stays where it is
        } else if broadcast_left {
            net.record_exchange(
                lrows * (self.machines as u64 - 1),
                lbytes * (self.machines as u64 - 1),
            );
            right.part_key.clone()
        } else {
            // Shuffle each side unless it is already partitioned on (a key
            // equivalent to) the join key.
            if left.part_key.as_deref() != Some(&join_key[..]) {
                net.record_exchange(self.cross_fraction(lrows), self.cross_fraction(lbytes));
            }
            if right.part_key.as_deref() != Some(&join_key[..]) {
                net.record_exchange(self.cross_fraction(rrows), self.cross_fraction(rbytes));
            }
            Some(join_key)
        };

        let mut joined = hash_join(&left, &right, keys);
        joined.part_key = part_key;
        joined
    }
}

/// Union-find over the columns of the equi-join predicates: every column is
/// mapped to one canonical representative of its equivalence class, so
/// "partitioned on this key" can be compared across transitively equated
/// columns.
fn join_column_classes(
    joins: &[vcsql_query::JoinPred],
) -> FxHashMap<(usize, usize), (usize, usize)> {
    let mut parent: FxHashMap<(usize, usize), (usize, usize)> = FxHashMap::default();
    fn find(
        parent: &mut FxHashMap<(usize, usize), (usize, usize)>,
        x: (usize, usize),
    ) -> (usize, usize) {
        let p = *parent.entry(x).or_insert(x);
        if p == x {
            return x;
        }
        let root = find(parent, p);
        parent.insert(x, root);
        root
    }
    for j in joins {
        let (a, b) = (find(&mut parent, j.left), find(&mut parent, j.right));
        if a != b {
            parent.insert(a.max(b), a.min(b));
        }
    }
    let cols: Vec<(usize, usize)> = parent.keys().copied().collect();
    cols.iter().map(|&c| (c, find(&mut parent, c))).collect()
}

/// Scan one table binding: its relation with single-table filters applied.
fn scan(a: &Analyzed, db: &Database, t: usize, binding: &TableBinding) -> Result<Inter> {
    let rel = db.get(&binding.relation)?;
    let bound: Vec<BoundExpr> =
        binding.filters.iter().map(|f| a.bind_to_table(t, f)).collect::<Result<_>>()?;
    // Evaluation errors propagate like the real engines' (a query the
    // engines refuse to run must not yield a byte count here).
    let mut rows = Vec::new();
    'tuples: for tup in &rel.tuples {
        for f in &bound {
            if !f.passes(&tup.0)? {
                continue 'tuples;
            }
        }
        rows.push(tup.0.clone());
    }
    Ok(Inter {
        cols: (0..binding.schema.arity()).map(|c| (t, c)).collect(),
        rows,
        tables: std::iter::once(t).collect(),
        part_key: None,
    })
}

/// In-memory hash join (cross product when `keys` is empty). NULL keys never
/// match, per SQL semantics.
fn hash_join(left: &Inter, right: &Inter, keys: &[EquiKey]) -> Inter {
    let out_cols: Vec<(usize, usize)> =
        left.cols.iter().chain(right.cols.iter()).copied().collect();
    let mut out = Inter {
        cols: out_cols,
        rows: Vec::new(),
        tables: left.tables.union(&right.tables).copied().collect(),
        part_key: None,
    };

    if keys.is_empty() {
        for l in &left.rows {
            for r in &right.rows {
                out.rows.push(l.iter().chain(r.iter()).cloned().collect());
            }
        }
        return out;
    }

    let lpos: Vec<usize> =
        keys.iter().map(|&(l, _)| left.pos(l).expect("left key present")).collect();
    let rpos: Vec<usize> =
        keys.iter().map(|&(_, r)| right.pos(r).expect("right key present")).collect();

    let mut index: FxHashMap<Vec<Value>, Vec<usize>> = FxHashMap::default();
    'build: for (i, r) in right.rows.iter().enumerate() {
        let mut key = Vec::with_capacity(rpos.len());
        for &p in &rpos {
            if r[p].is_null() {
                continue 'build;
            }
            key.push(r[p].clone());
        }
        index.entry(key).or_default().push(i);
    }
    'probe: for l in &left.rows {
        let mut key = Vec::with_capacity(lpos.len());
        for &p in &lpos {
            if l[p].is_null() {
                continue 'probe;
            }
            key.push(l[p].clone());
        }
        if let Some(matches) = index.get(&key) {
            for &ri in matches {
                out.rows.push(l.iter().chain(right.rows[ri].iter()).cloned().collect());
            }
        }
    }
    out
}

/// Bind `e` against the intermediate's layout if every column it references
/// is available; `None` otherwise.
fn bind_if_covered(e: &Expr, a: &Analyzed, inter: &Inter) -> Result<Option<BoundExpr>> {
    let mut cols = Vec::new();
    e.columns(&mut cols);
    let mut resolved = Vec::with_capacity(cols.len());
    for c in &cols {
        let (t, cc) = a.resolve(c)?;
        match inter.pos((t, cc)) {
            Some(p) => resolved.push((c.clone(), p)),
            None => return Ok(None),
        }
    }
    let bound = e.bind(&|c: &ColRef| {
        resolved
            .iter()
            .find(|(rc, _)| rc == c)
            .map(|&(_, p)| p)
            .ok_or_else(|| RelError::UnknownColumn(c.name.clone()))
    })?;
    Ok(Some(bound))
}
