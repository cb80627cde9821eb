//! Join hypergraph, GYO ear-removal, and join-tree construction.
//!
//! A query's equi-join predicates induce *join variables* (equivalence
//! classes of table columns connected by `=`) and a hypergraph whose
//! hyperedges are the tables (each covering its join variables). GYO
//! reduction repeatedly removes "ears"; it empties the hypergraph iff the
//! query is acyclic, and the ear/witness pairs form the join tree the paper
//! builds its TAG plan from (Section 5.1). GYO reduction is confluent: the
//! cyclic core it leaves, and so the predicate [`decompose`] breaks, does
//! not depend on the order tables are listed in.
//!
//! Cyclic queries: [`decompose`] breaks cycles by demoting join predicates to
//! residual filters until GYO succeeds (sound — the demoted equality is still
//! enforced when rows are assembled, exactly the "PK-FK cycle" treatment of
//! Section 6.1.1).

use crate::analyze::JoinPred;
use vcsql_relation::FxHashMap;

/// A join variable: an equivalence class of `(table, column)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinVar {
    pub id: usize,
    pub occurrences: Vec<(usize, usize)>,
}

impl JoinVar {
    /// The column of this variable in `table`, if any.
    pub fn column_in(&self, table: usize) -> Option<usize> {
        self.occurrences.iter().find(|&&(t, _)| t == table).map(|&(_, c)| c)
    }

    /// Tables containing this variable.
    pub fn tables(&self) -> impl Iterator<Item = usize> + '_ {
        let mut seen = Vec::new();
        self.occurrences.iter().filter_map(move |&(t, _)| {
            if seen.contains(&t) {
                None
            } else {
                seen.push(t);
                Some(t)
            }
        })
    }
}

/// A rooted join tree over table indices.
#[derive(Debug, Clone)]
pub struct JoinTree {
    /// Tables in this tree (a connected component of the join graph).
    pub tables: Vec<usize>,
    pub root: usize,
    /// Parent table of each member (None for the root). Indexed by table id.
    pub parent: FxHashMap<usize, Option<usize>>,
    /// Children in deterministic order.
    pub children: FxHashMap<usize, Vec<usize>>,
    /// Join variable linking each non-root table to its parent (canonical:
    /// the lowest-id shared variable).
    pub link_var: FxHashMap<usize, usize>,
    /// Additional variables shared with the parent beyond the canonical one
    /// (multi-attribute joins; enforced as residual equalities by executors
    /// that do not implement the Section 4.2 intersection protocol).
    pub extra_link_vars: FxHashMap<usize, Vec<usize>>,
}

impl JoinTree {
    /// Single-table tree.
    fn singleton(table: usize) -> JoinTree {
        let mut parent = FxHashMap::default();
        parent.insert(table, None);
        let mut children = FxHashMap::default();
        children.insert(table, Vec::new());
        JoinTree {
            tables: vec![table],
            root: table,
            parent,
            children,
            link_var: FxHashMap::default(),
            extra_link_vars: FxHashMap::default(),
        }
    }

    /// Re-root the tree at `new_root` (must be a member). Parent/child links
    /// along the path to the old root are reversed; link variables stay
    /// attached to the same tree *edges*.
    pub fn reroot(&mut self, new_root: usize) {
        assert!(self.tables.contains(&new_root), "reroot target not in tree");
        // Collect path new_root -> old root.
        let mut path = vec![new_root];
        while let Some(Some(p)) = self.parent.get(path.last().unwrap()) {
            path.push(*p);
        }
        // Collect the link info of every edge on the path *before* mutating:
        // each reversed edge re-attaches its variables to the other endpoint,
        // and doing removal and insertion interleaved would clobber links on
        // longer paths.
        let infos: Vec<(Option<usize>, Vec<usize>)> = path
            .windows(2)
            .map(|w| {
                (
                    self.link_var.remove(&w[0]),
                    self.extra_link_vars.remove(&w[0]).unwrap_or_default(),
                )
            })
            .collect();
        for (w, (var, extra)) in path.windows(2).zip(infos) {
            let (child, par) = (w[0], w[1]);
            // par loses child; child gains par as a child.
            self.children.get_mut(&par).unwrap().retain(|&c| c != child);
            self.children.get_mut(&child).unwrap().insert(0, par);
            if let Some(v) = var {
                self.link_var.insert(par, v);
            }
            if !extra.is_empty() {
                self.extra_link_vars.insert(par, extra);
            }
            self.parent.insert(par, Some(child));
        }
        self.parent.insert(new_root, None);
        self.root = new_root;
    }

    /// Tables in depth-first pre-order from the root.
    pub fn preorder(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.tables.len());
        let mut stack = vec![self.root];
        while let Some(t) = stack.pop() {
            out.push(t);
            // Push children reversed so the first child is visited first.
            for &c in self.children[&t].iter().rev() {
                stack.push(c);
            }
        }
        out
    }
}

/// The result of join-graph decomposition.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// One join tree per connected component (singletons for unjoined
    /// tables). Components are combined with Cartesian products.
    pub components: Vec<JoinTree>,
    /// Join variables (indexed by `JoinVar::id`).
    pub vars: Vec<JoinVar>,
    /// `(table, column)` → variable id.
    pub var_of: FxHashMap<(usize, usize), usize>,
    /// Join predicates demoted to residual filters to break cycles.
    pub broken: Vec<JoinPred>,
    /// True iff the original join graph was cyclic.
    pub cyclic: bool,
}

/// Union-find.
struct Uf(Vec<usize>);

impl Uf {
    fn new(n: usize) -> Uf {
        Uf((0..n).collect())
    }
    fn find(&mut self, x: usize) -> usize {
        if self.0[x] != x {
            let r = self.find(self.0[x]);
            self.0[x] = r;
        }
        self.0[x]
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0[ra.max(rb)] = ra.min(rb);
        }
    }
}

/// The join variables of the predicates (in order of first occurrence), and
/// the variable id of every `(table, column)` they mention.
pub fn join_vars(joins: &[JoinPred]) -> (Vec<JoinVar>, FxHashMap<(usize, usize), usize>) {
    // Index the (table, col) pairs that participate in joins.
    let mut pair_ids: FxHashMap<(usize, usize), usize> = FxHashMap::default();
    let mut pairs = Vec::new();
    let id_of = |p: (usize, usize),
                 pairs: &mut Vec<(usize, usize)>,
                 map: &mut FxHashMap<(usize, usize), usize>| {
        *map.entry(p).or_insert_with(|| {
            pairs.push(p);
            pairs.len() - 1
        })
    };
    let mut edges = Vec::new();
    for j in joins {
        let a = id_of(j.left, &mut pairs, &mut pair_ids);
        let b = id_of(j.right, &mut pairs, &mut pair_ids);
        edges.push((a, b));
    }
    let mut uf = Uf::new(pairs.len());
    for (a, b) in edges {
        uf.union(a, b);
    }
    // Group pairs by root, deterministic order by first occurrence.
    let mut var_index: FxHashMap<usize, usize> = FxHashMap::default();
    let mut vars: Vec<JoinVar> = Vec::new();
    for (i, &p) in pairs.iter().enumerate() {
        let root = uf.find(i);
        let vid = *var_index.entry(root).or_insert_with(|| {
            vars.push(JoinVar { id: vars.len(), occurrences: Vec::new() });
            vars.len() - 1
        });
        vars[vid].occurrences.push(p);
    }
    let mut var_of = FxHashMap::default();
    for v in &vars {
        for &occ in &v.occurrences {
            var_of.insert(occ, v.id);
        }
    }
    (vars, var_of)
}

/// Run GYO on one component; returns the join tree, or the residual
/// (non-ear-removable) tables on failure.
fn gyo_component(
    tables: &[usize],
    table_vars: &FxHashMap<usize, Vec<usize>>,
    vars: &[JoinVar],
) -> Result<JoinTree, Vec<usize>> {
    if tables.len() == 1 {
        return Ok(JoinTree::singleton(tables[0]));
    }
    let mut remaining: Vec<usize> = tables.to_vec();
    let mut parent: FxHashMap<usize, Option<usize>> = FxHashMap::default();
    let mut children: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
    let mut link_var: FxHashMap<usize, usize> = FxHashMap::default();
    let mut extra_link_vars: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
    for &t in tables {
        children.insert(t, Vec::new());
    }

    // A variable is "live in others" for ear e if some other remaining table
    // contains it.
    while remaining.len() > 1 {
        let mut removed = None;
        'ears: for (i, &e) in remaining.iter().enumerate() {
            // Vars of e that occur in some other remaining table.
            let shared: Vec<usize> = table_vars[&e]
                .iter()
                .copied()
                .filter(|&v| vars[v].tables().any(|t| t != e && remaining.contains(&t)))
                .collect();
            if shared.is_empty() {
                // Disconnected within component cannot happen (components are
                // connected), but guard anyway: treat as ear of the first
                // other table with no link var.
                continue;
            }
            // A witness f contains all shared vars.
            for &f in remaining.iter() {
                if f == e {
                    continue;
                }
                if shared.iter().all(|v| table_vars[&f].contains(v)) {
                    // e is an ear with witness f.
                    parent.insert(e, Some(f));
                    children.get_mut(&f).unwrap().push(e);
                    let mut sh = shared.clone();
                    sh.sort_unstable();
                    link_var.insert(e, sh[0]);
                    if sh.len() > 1 {
                        extra_link_vars.insert(e, sh[1..].to_vec());
                    }
                    removed = Some(i);
                    break 'ears;
                }
            }
        }
        match removed {
            Some(i) => {
                remaining.remove(i);
            }
            None => return Err(remaining),
        }
    }
    let root = remaining[0];
    parent.insert(root, None);
    // Children are attached in removal order. Neither they nor the root
    // shape a plan: the executor reroots the tree and orders every node's
    // children by cost (`vcsql_core::cost`).
    Ok(JoinTree { tables: tables.to_vec(), root, parent, children, link_var, extra_link_vars })
}

/// Decompose a join graph over `n_tables` tables into join trees per
/// connected component, breaking cycles if necessary.
pub fn decompose(n_tables: usize, joins: &[JoinPred]) -> Decomposition {
    let mut active: Vec<JoinPred> = joins.to_vec();
    let mut broken = Vec::new();
    let mut cyclic = false;

    loop {
        let (vars, var_of) = join_vars(&active);
        // Vars per table.
        let mut table_vars: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
        for t in 0..n_tables {
            table_vars.insert(t, Vec::new());
        }
        for v in &vars {
            for t in v.tables() {
                let tv = table_vars.get_mut(&t).unwrap();
                if !tv.contains(&v.id) {
                    tv.push(v.id);
                }
            }
        }
        // Connected components over shared vars.
        let mut comp_of: Vec<Option<usize>> = vec![None; n_tables];
        let mut comps: Vec<Vec<usize>> = Vec::new();
        for t in 0..n_tables {
            if comp_of[t].is_some() {
                continue;
            }
            let id = comps.len();
            let mut queue = vec![t];
            comp_of[t] = Some(id);
            let mut members = Vec::new();
            while let Some(x) = queue.pop() {
                members.push(x);
                for &v in &table_vars[&x] {
                    for u in vars[v].tables() {
                        if comp_of[u].is_none() {
                            comp_of[u] = Some(id);
                            queue.push(u);
                        }
                    }
                }
            }
            members.sort_unstable();
            comps.push(members);
        }

        let mut components = Vec::new();
        let mut failure: Option<Vec<usize>> = None;
        for comp in &comps {
            match gyo_component(comp, &table_vars, &vars) {
                Ok(tree) => components.push(tree),
                Err(residue) => {
                    failure = Some(residue);
                    break;
                }
            }
        }

        match failure {
            None => {
                return Decomposition { components, vars, var_of, broken, cyclic };
            }
            Some(residue) => {
                cyclic = true;
                // Break the cycle: demote one active join predicate whose
                // both sides lie in the residual core.
                let pick = active
                    .iter()
                    .position(|j| residue.contains(&j.left.0) && residue.contains(&j.right.0))
                    .expect("cyclic core must contain a join predicate");
                broken.push(active.remove(pick));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jp(l: (usize, usize), r: (usize, usize)) -> JoinPred {
        JoinPred { left: l, right: r }
    }

    #[test]
    fn chain_is_acyclic() {
        // R(0) -x- S(1) -y- T(2)
        let d = decompose(3, &[jp((0, 0), (1, 0)), jp((1, 1), (2, 0))]);
        assert!(!d.cyclic);
        assert_eq!(d.components.len(), 1);
        let t = &d.components[0];
        assert_eq!(t.tables, vec![0, 1, 2]);
        // Every non-root has a link var.
        for &tb in &t.tables {
            if tb != t.root {
                assert!(t.link_var.contains_key(&tb), "missing link for {tb}");
            }
        }
    }

    #[test]
    fn star_schema_is_acyclic() {
        // fact(0) joined to dims 1,2,3 on distinct keys.
        let joins = [jp((0, 0), (1, 0)), jp((0, 1), (2, 0)), jp((0, 2), (3, 0))];
        let mut d = decompose(4, &joins);
        assert!(!d.cyclic);
        // GYO's root is whichever hyperedge survives last; re-root at the
        // fact table for the star shape.
        d.components[0].reroot(0);
        let t = &d.components[0];
        assert_eq!(t.children[&0].len(), 3);
        for dim in 1..4 {
            assert_eq!(t.parent[&dim], Some(0));
            assert!(t.link_var.contains_key(&dim));
        }
    }

    #[test]
    fn shared_variable_across_three_tables() {
        // S.b = T.b and S.b = V.b: one variable with 3 tables; acyclic.
        let joins = [jp((1, 1), (2, 0)), jp((1, 1), (3, 0)), jp((0, 0), (1, 0))];
        let d = decompose(4, &joins);
        assert!(!d.cyclic);
        assert_eq!(d.vars.len(), 2);
        let b_var = d.var_of[&(2, 0)];
        assert_eq!(d.vars[b_var].tables().count(), 3);
    }

    #[test]
    fn triangle_is_cyclic_and_breaks_one_predicate() {
        let joins = [jp((0, 1), (1, 0)), jp((1, 1), (2, 0)), jp((2, 1), (0, 0))];
        let d = decompose(3, &joins);
        assert!(d.cyclic);
        assert_eq!(d.broken.len(), 1);
        assert_eq!(d.components.len(), 1);
        assert_eq!(d.components[0].tables.len(), 3);
    }

    #[test]
    fn cartesian_product_components() {
        let d = decompose(3, &[jp((0, 0), (1, 0))]); // table 2 unjoined
        assert!(!d.cyclic);
        assert_eq!(d.components.len(), 2);
        assert!(d.components.iter().any(|c| c.tables == vec![2]));
    }

    #[test]
    fn multi_attribute_join_records_companions() {
        // R and S joined on two attributes.
        let joins = [jp((0, 0), (1, 0)), jp((0, 1), (1, 1))];
        let d = decompose(2, &joins);
        assert!(!d.cyclic, "two parallel edges are not a cycle for GYO");
        let t = &d.components[0];
        let child = *t.children[&t.root].first().unwrap();
        assert!(t.link_var.contains_key(&child));
        assert_eq!(t.extra_link_vars[&child].len(), 1);
    }

    #[test]
    fn reroot_preserves_edges() {
        let joins = [jp((0, 0), (1, 0)), jp((1, 1), (2, 0))];
        let mut d = decompose(3, &joins);
        let tree = &mut d.components[0];
        let old_root = tree.root;
        let target = *tree.tables.iter().find(|&&t| t != old_root).unwrap();
        tree.reroot(target);
        assert_eq!(tree.root, target);
        assert_eq!(tree.parent[&target], None);
        // Still a tree over the same tables: every non-root has a parent and
        // a link var.
        let mut non_roots = 0;
        for &t in &tree.tables {
            if t != tree.root {
                assert!(tree.parent[&t].is_some());
                assert!(tree.link_var.contains_key(&t), "no link for {t}");
                non_roots += 1;
            }
        }
        assert_eq!(non_roots, 2);
        // Preorder visits all tables.
        assert_eq!(tree.preorder().len(), 3);
    }

    #[test]
    fn five_way_cycle_breaks_into_acyclic_tree() {
        // TPC-H q5 shape: a 5-cycle.
        let joins = [
            jp((0, 1), (1, 0)),
            jp((1, 1), (2, 0)),
            jp((2, 1), (3, 0)),
            jp((3, 1), (4, 0)),
            jp((4, 1), (0, 0)),
        ];
        let d = decompose(5, &joins);
        assert!(d.cyclic);
        assert_eq!(d.broken.len(), 1);
        assert_eq!(d.components.len(), 1);
    }
}
