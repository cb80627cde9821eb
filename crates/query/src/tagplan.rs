//! TAG plans (paper Section 5.1) and traversal-step generation
//! (Algorithm 1, `GenSteps`).
//!
//! A TAG plan is a tree that interleaves **relation nodes** (one per join
//! tree bag) with **attribute nodes** (one per join variable); the edge
//! between an attribute node for variable `X` and the relation node for `R`
//! is labelled `R.A` where `A` is `X`'s column in `R`.
//!
//! `GenSteps` linearizes the plan into a list of edge labels by a *connected
//! bottom-up traversal* starting at the rightmost leaf, the end of the
//! last-child path from the root; siblings off that path are visited last
//! to first. The list drives the vertex program: at superstep `i` active
//! vertices send messages along their edges labelled `steps[i]` (paper
//! Algorithm 2), and the bottom-up reduction pass walks all of it. The
//! paper fixes neither the root nor the child order; the executor reroots
//! the join tree and reorders each node's `children` by cost
//! (`vcsql_core::cost`), which picks the start leaf.
//!
//! A subtree whose tables no output reads is *reduction-only*, a
//! [`Branch`] of the plan ([`TagPlan::branches`]). The top-down reduction
//! pass (reversed) and the collection pass walk the `GenSteps` list of the
//! plan [`without`](TagPlan::without) each branch that extends every row it
//! joins exactly once, which only the data can tell.
//!
//! An EXISTS or NOT EXISTS subquery may join the plan as a *semijoin*
//! branch ([`TagPlan::with_semijoins`], [`Part`]): its inner tables hang at
//! the attribute node of the outer correlation column, the bottom-up pass
//! enters the branch from there and returns, and the later passes always
//! leave it out, since a semijoin filters and never multiplies. A semijoin
//! node is never on the rightmost path, so the traversal never starts in
//! one.

use crate::gyo::{Decomposition, JoinTree};

/// A node of the TAG plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanNode {
    /// The relation node for a FROM table (by table index).
    Rel { table: usize },
    /// The attribute node for a join variable.
    Attr { var: usize },
}

/// One traversal step: the TAG edge label `table.column` to message along.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    pub table: usize,
    pub col: usize,
}

/// A TAG plan tree for one join-tree component.
#[derive(Debug, Clone)]
pub struct TagPlan {
    pub nodes: Vec<PlanNode>,
    pub children: Vec<Vec<usize>>,
    pub parent: Vec<Option<usize>>,
    /// Label of the edge from `parent[n]` into `n` (None for the root). The
    /// label always references the relation side of the edge.
    pub in_label: Vec<Option<Step>>,
    /// How each node's subtree takes part in the query.
    pub part: Vec<Part>,
    pub root: usize,
}

/// How a plan node's subtree takes part in the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// A join: the node's rows join its parent's.
    Join,
    /// Inside an EXISTS branch, or inside a NOT EXISTS branch below its
    /// top: the parent's vertices that reach a surviving vertex here stay.
    Semi,
    /// The top of a NOT EXISTS branch: the parent's vertices that enter it
    /// stay only if none of them comes back.
    Anti,
}

/// A reduction-only subtree: its top node, the labels that enter its
/// relation nodes outside semijoin branches, and whether it is one. When
/// it is a semijoin, or every label is unique in the data, each row the
/// branch joins extends into it at most once where it matters, and the
/// top-down and collection passes may leave it out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Branch {
    pub node: usize,
    pub keys: Vec<Step>,
    pub semi: bool,
}

impl TagPlan {
    /// Build the TAG plan from a join tree (paper Section 5.1): one relation
    /// node per bag, one attribute node per join variable, attribute nodes
    /// spliced between a bag and its children.
    pub fn from_join_tree(tree: &JoinTree, dec: &Decomposition) -> TagPlan {
        let mut plan = TagPlan {
            nodes: Vec::new(),
            children: Vec::new(),
            parent: Vec::new(),
            in_label: Vec::new(),
            part: Vec::new(),
            root: 0,
        };
        let root_rel = plan.add_node(PlanNode::Rel { table: tree.root }, None, None);
        plan.root = root_rel;
        // Map table -> its rel node; var -> its attr node (created when first
        // needed, under the rel node of the *parent* side so the connected
        // subtree property of GHDs maps to a tree here).
        let mut rel_node = vcsql_relation::FxHashMap::default();
        rel_node.insert(tree.root, root_rel);
        let mut attr_node: vcsql_relation::FxHashMap<usize, usize> =
            vcsql_relation::FxHashMap::default();

        for t in tree.preorder() {
            if t == tree.root {
                continue;
            }
            let parent_table = tree.parent[&t].expect("non-root has a parent");
            let var = tree.link_var[&t];
            let parent_rel = rel_node[&parent_table];
            let a = *attr_node.entry(var).or_insert_with(|| {
                let col_in_parent =
                    dec.vars[var].column_in(parent_table).expect("link var occurs in parent");
                plan.add_node(
                    PlanNode::Attr { var },
                    Some(parent_rel),
                    Some(Step { table: parent_table, col: col_in_parent }),
                )
            });
            let col_in_child = dec.vars[var].column_in(t).expect("link var occurs in child");
            let r = plan.add_node(
                PlanNode::Rel { table: t },
                Some(a),
                Some(Step { table: t, col: col_in_child }),
            );
            rel_node.insert(t, r);
        }
        plan
    }

    fn add_node(&mut self, node: PlanNode, parent: Option<usize>, label: Option<Step>) -> usize {
        let id = self.nodes.len();
        self.nodes.push(node);
        self.children.push(Vec::new());
        self.parent.push(parent);
        self.in_label.push(label);
        self.part.push(Part::Join);
        if let Some(p) = parent {
            self.children[p].push(id);
        }
        id
    }

    /// Mark the semijoin branches: `semi(table)` is `Some(negated)` for
    /// each table of an EXISTS (`false`) or NOT EXISTS (`true`) inner block.
    /// Their relation nodes are [`Part::Semi`], and so is every attribute
    /// node all of whose children are; the top of each NOT EXISTS branch,
    /// its attribute node when that holds nothing else and else the inner
    /// block's first relation node, is [`Part::Anti`].
    pub fn with_semijoins(mut self, semi: impl Fn(usize) -> Option<bool>) -> TagPlan {
        // Children are numbered after their parents.
        for n in (0..self.len()).rev() {
            let inside = match self.nodes[n] {
                PlanNode::Rel { table } => semi(table).is_some(),
                PlanNode::Attr { .. } => {
                    let children = &self.children[n];
                    !children.is_empty() && children.iter().all(|&c| self.part[c] != Part::Join)
                }
            };
            if inside {
                self.part[n] = Part::Semi;
            }
        }
        for n in 0..self.len() {
            let PlanNode::Rel { table } = self.nodes[n] else { continue };
            if semi(table) != Some(true) {
                continue;
            }
            let attach = self.parent[n].expect("an inner table hangs off the outer block");
            if self.parent[attach].is_none_or(|p| self.part[p] == Part::Join) {
                let top = if self.part[attach] == Part::Semi { attach } else { n };
                self.part[top] = Part::Anti;
            }
        }
        self
    }

    /// Whether node `n` is inside a semijoin branch.
    pub fn is_semi(&self, n: usize) -> bool {
        self.part[n] != Part::Join
    }

    /// The [`Branch`] of every reduction-only node, a node whose subtree
    /// holds no `kept` table (the root always stays), in node order: a
    /// branch nested in another follows it. A semijoin's tables must not be
    /// kept.
    pub fn branches(&self, kept: impl Fn(usize) -> bool) -> Vec<Branch> {
        let mut reduce_only = vec![false; self.len()];
        // Children are numbered after their parents.
        for n in (0..self.len()).rev() {
            let holds =
                n == self.root || matches!(self.nodes[n], PlanNode::Rel { table } if kept(table));
            reduce_only[n] = !holds && self.children[n].iter().all(|&c| reduce_only[c]);
        }
        (0..self.len())
            .filter(|&n| reduce_only[n])
            .map(|node| {
                let mut keys = Vec::new();
                let mut stack = vec![node];
                while let Some(m) = stack.pop() {
                    if self.is_semi(m) {
                        continue;
                    }
                    if let PlanNode::Rel { .. } = self.nodes[m] {
                        keys.push(self.in_label[m].expect("a branch hangs off a parent"));
                    }
                    stack.extend(&self.children[m]);
                }
                Branch { node, keys, semi: self.is_semi(node) }
            })
            .collect()
    }

    /// The plan less the subtrees under the nodes `dropped` holds: node
    /// ids stay, the dropped ones are no node's children.
    pub fn without(&self, dropped: impl Fn(usize) -> bool) -> TagPlan {
        let mut plan = self.clone();
        for children in &mut plan.children {
            children.retain(|&c| !dropped(c));
        }
        plan
    }

    /// The last child of `n`, unless it is inside a semijoin branch: the
    /// next node of the rightmost path. A node's semijoin children come
    /// before its others (see [`TagPlan::gen_steps`]).
    fn next_on_path(&self, n: usize) -> Option<usize> {
        self.children[n].last().copied().filter(|&c| !self.is_semi(c))
    }

    /// The rightmost leaf: follow the last child from the root, up to a
    /// semijoin branch.
    pub fn rightmost_leaf(&self) -> usize {
        let mut n = self.root;
        while let Some(c) = self.next_on_path(n) {
            n = c;
        }
        n
    }

    /// The nodes on the rightmost root-leaf path, root first.
    pub fn rightmost_path(&self) -> Vec<usize> {
        let mut path = vec![self.root];
        let mut n = self.root;
        while let Some(c) = self.next_on_path(n) {
            path.push(c);
            n = c;
        }
        path
    }

    /// `GenSteps` (paper Algorithm 1): the list of edge labels for the
    /// connected bottom-up traversal, in execution order (first step first).
    ///
    /// The traversal starts at the rightmost leaf, fully explores each
    /// subtree before moving to the parent, and revisits edges as needed to
    /// stay connected (each revisited edge contributes its label twice).
    /// The rightmost child must be its parent's last, so a node whose last
    /// child is a semijoin must have no other kind.
    pub fn gen_steps(&self) -> Vec<Step> {
        debug_assert!(
            (0..self.len()).all(|n| {
                let c = &self.children[n];
                c.last().is_none_or(|&l| !self.is_semi(l) || c.iter().all(|&c| self.is_semi(c)))
            }),
            "a semijoin child follows a join child"
        );
        let rightmost = self.rightmost_path();
        let mut stack: Vec<Step> = Vec::new();
        self.dfs(self.root, &rightmost, &mut stack);
        stack.reverse(); // LIFO pop order = execution order
        stack
    }

    fn dfs(&self, node: usize, rightmost: &[usize], stack: &mut Vec<Step>) {
        if let Some(label) = self.in_label[node] {
            stack.push(label);
        }
        for &c in &self.children[node] {
            self.dfs(c, rightmost, stack);
        }
        if self.parent[node].is_some() && !rightmost.contains(&node) {
            stack.push(self.in_label[node].expect("non-root has an in label"));
        }
    }

    /// The table of the plan's root relation node.
    pub fn root_table(&self) -> usize {
        match self.nodes[self.root] {
            PlanNode::Rel { table } => table,
            PlanNode::Attr { .. } => unreachable!("plan roots are relation nodes"),
        }
    }

    /// The table of the starting relation (the rightmost leaf must be a
    /// relation node for join plans).
    pub fn start_table(&self) -> usize {
        match self.nodes[self.rightmost_leaf()] {
            PlanNode::Rel { table } => table,
            PlanNode::Attr { .. } => {
                unreachable!("attribute nodes always have relation children in join plans")
            }
        }
    }

    /// Number of plan nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the plan is a single relation node (no joins).
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::JoinPred;
    use crate::gyo::decompose;

    fn jp(l: (usize, usize), r: (usize, usize)) -> JoinPred {
        JoinPred { left: l, right: r }
    }

    /// Reproduce the paper's Figure 4: tables R=0, S=1, T=2, V=3 with
    /// R.A = S.A (cols: R.0 = S.0) and S.B = T.B = V.B (S.1 = T.0 = V.0).
    fn figure4() -> (Decomposition, TagPlan) {
        let joins = [jp((1, 1), (2, 0)), jp((1, 1), (3, 0)), jp((0, 0), (1, 0))];
        let mut dec = decompose(4, &joins);
        assert!(!dec.cyclic);
        dec.components[0].reroot(0);
        // Normalize child order so S's children are [T, V] as in the figure.
        let tree = &mut dec.components[0];
        for lists in [&mut tree.children] {
            for (_, cs) in lists.iter_mut() {
                cs.sort_unstable();
            }
        }
        let plan = TagPlan::from_join_tree(&dec.components[0], &dec);
        (dec, plan)
    }

    #[test]
    fn figure4_plan_shape() {
        let (_, plan) = figure4();
        // Nodes: R, A, S, B, T, V.
        assert_eq!(plan.len(), 6);
        assert!(matches!(plan.nodes[plan.root], PlanNode::Rel { table: 0 }));
        // Exactly two attribute nodes.
        let attrs = plan.nodes.iter().filter(|n| matches!(n, PlanNode::Attr { .. })).count();
        assert_eq!(attrs, 2);
        // Rightmost leaf is V (table 3).
        assert_eq!(plan.start_table(), 3);
    }

    #[test]
    fn figure4_gen_steps_matches_paper() {
        let (_, plan) = figure4();
        let steps = plan.gen_steps();
        // Expected: V.B, T.B, T.B, S.B, S.A, R.A (paper Fig 4(c)), where
        // B is col 0 of T/V and col 1 of S; A is col 0 of R and S.
        let expect = [
            Step { table: 3, col: 0 }, // V.B
            Step { table: 2, col: 0 }, // T.B (enter T)
            Step { table: 2, col: 0 }, // T.B (back to B)
            Step { table: 1, col: 1 }, // S.B
            Step { table: 1, col: 0 }, // S.A
            Step { table: 0, col: 0 }, // R.A
        ];
        assert_eq!(steps, expect);
    }

    #[test]
    fn lemma51_semantics_odd_projections_even_semijoins() {
        // The steps list alternates: starting from tuple vertices, step 1
        // activates attribute vertices (projection), step 2 tuple vertices
        // (semi-join), ... — so consecutive steps must alternate between
        // "label of the relation we stand on" and "label of the relation we
        // move to". We verify the step tables follow the connected traversal
        // order of Figure 4: V, B, T, B, S, A, R.
        let (_, plan) = figure4();
        let steps = plan.gen_steps();
        let tables: Vec<usize> = steps.iter().map(|s| s.table).collect();
        assert_eq!(tables, vec![3, 2, 2, 1, 1, 0]);
    }

    #[test]
    fn chain_plan_steps() {
        // R(0) -x- S(1) -y- T(2), rooted at R.
        let joins = [jp((0, 0), (1, 0)), jp((1, 1), (2, 0))];
        let mut dec = decompose(3, &joins);
        dec.components[0].reroot(0);
        let plan = TagPlan::from_join_tree(&dec.components[0], &dec);
        let steps = plan.gen_steps();
        // Pure chain: no revisits; length = #edges = 4.
        assert_eq!(steps.len(), 4);
        assert_eq!(plan.start_table(), 2);
        // Bottom-up: T.y, S.y, S.x, R.x.
        assert_eq!(
            steps,
            vec![
                Step { table: 2, col: 0 },
                Step { table: 1, col: 1 },
                Step { table: 1, col: 0 },
                Step { table: 0, col: 0 },
            ]
        );
    }

    #[test]
    fn star_plan_revisits_center() {
        // fact(0) with three dims; root at fact.
        let joins = [jp((0, 0), (1, 0)), jp((0, 1), (2, 0)), jp((0, 2), (3, 0))];
        let mut dec = decompose(4, &joins);
        dec.components[0].reroot(0);
        let plan = TagPlan::from_join_tree(&dec.components[0], &dec);
        let steps = plan.gen_steps();
        // Edges: 6; two non-rightmost dim subtrees are revisited (+2 each on
        // their two-edge paths... each dim leaf contributes enter+exit for
        // both its edges except the rightmost path).
        // The start table is whichever dimension ended up rightmost.
        let start = plan.start_table();
        assert!((1..4).contains(&start));
        // First step must leave the rightmost leaf; last must enter the root.
        assert_eq!(steps[0].table, start);
        assert_eq!(steps.last().unwrap().table, 0);
        // Connectivity: the labels of non-rightmost dimensions appear twice
        // (enter + backtrack); the rightmost dimension's label appears once.
        let count = |s: Step| steps.iter().filter(|&&x| x == s).count();
        for dim in 1..4 {
            let expected = if dim == start { 1 } else { 2 };
            assert_eq!(count(Step { table: dim, col: 0 }), expected, "dim {dim}");
        }
    }

    /// Leaving out the branches of the tables no output reads walks the
    /// kept tables as planning them alone would: Figure 4 without T is the
    /// plan of R, S and V, and the star without its rightmost dimension is
    /// the star of the other two.
    #[test]
    fn the_walk_without_branches_is_gen_steps_of_the_kept_tables_alone() {
        // The plan of `joins` over four tables, rooted at table 0.
        let plan = |joins: &[JoinPred]| {
            let mut dec = decompose(4, joins);
            let c = dec.components.iter().position(|c| c.tables.contains(&0)).unwrap();
            dec.components[c].reroot(0);
            TagPlan::from_join_tree(&dec.components[c], &dec)
        };
        let (_, fig4) = figure4();
        let star = [jp((0, 0), (1, 0)), jp((0, 1), (2, 0)), jp((0, 2), (3, 0))];
        let last = plan(&star).start_table();
        let others: Vec<JoinPred> = star.iter().copied().filter(|j| j.right.0 != last).collect();
        for (full, dropped, alone) in [
            (fig4, 2, plan(&[jp((1, 1), (3, 0)), jp((0, 0), (1, 0))])),
            (plan(&star), last, plan(&others)),
        ] {
            let branches = full.branches(|t| t != dropped);
            assert!(!branches.is_empty());
            let walk = full.without(|n| branches.iter().any(|b| b.node == n));
            assert_eq!(walk.gen_steps(), alone.gen_steps(), "without table {dropped}");
            assert_eq!(walk.start_table(), alone.start_table());
        }
    }

    /// An EXISTS over `l` hangs at the attribute node of `o.k`, on which
    /// the outer block joins nothing, and an EXISTS over `s` and a NOT
    /// EXISTS over `a` at the node of `o.c = c.c`. With semijoin children
    /// first, no semijoin node is on the rightmost path: the walk starts at
    /// `c`, enters each branch from its attach node and returns there, and
    /// every branch is a semijoin the later passes leave out.
    #[test]
    fn semijoin_branches_are_entered_from_their_attach_node() {
        // o(k, c) = 0, c(c) = 1, l(k) = 2, s(c) = 3, a(c) = 4.
        let joins =
            [jp((0, 1), (1, 0)), jp((0, 0), (2, 0)), jp((1, 0), (3, 0)), jp((1, 0), (4, 0))];
        let mut dec = decompose(5, &joins);
        dec.components[0].reroot(0);
        let semi = |t: usize| [None, None, Some(false), Some(false), Some(true)][t];
        let mut plan = TagPlan::from_join_tree(&dec.components[0], &dec).with_semijoins(semi);
        let node = |t: usize| plan.nodes.iter().position(|&n| n == PlanNode::Rel { table: t });
        let [c, l, s, a] = [1, 2, 3, 4].map(|t| node(t).unwrap());
        let (ok, oc) = (plan.parent[l].unwrap(), plan.parent[c].unwrap());
        assert_eq!([plan.part[ok], plan.part[l]], [Part::Semi, Part::Semi]);
        assert_eq!([plan.parent[s], plan.parent[a]], [Some(oc), Some(oc)]);
        assert_eq!(
            [plan.part[oc], plan.part[s], plan.part[a]],
            [Part::Join, Part::Semi, Part::Anti]
        );
        let part = plan.part.clone();
        for children in &mut plan.children {
            children.sort_by_key(|&n| part[n] == Part::Join);
        }
        assert_eq!(plan.rightmost_path(), [plan.root, oc, c]);
        let steps: Vec<(usize, usize)> =
            plan.gen_steps().iter().map(|s| (s.table, s.col)).collect();
        let want = [(1, 0), (4, 0), (4, 0), (3, 0), (3, 0), (0, 1), (0, 0), (2, 0), (2, 0), (0, 0)];
        assert_eq!(steps, want);
        let branches = plan.branches(|t| t < 2);
        let mut semis: Vec<usize> = branches.iter().map(|b| b.node).collect();
        semis.sort_unstable();
        let mut want = [ok, l, s, a];
        want.sort_unstable();
        assert_eq!(semis, want);
        assert!(branches.iter().all(|b| b.semi && b.keys.is_empty()), "{branches:?}");
    }

    #[test]
    fn singleton_plan() {
        let dec = decompose(1, &[]);
        let plan = TagPlan::from_join_tree(&dec.components[0], &dec);
        assert!(plan.is_empty());
        assert!(plan.gen_steps().is_empty());
        assert_eq!(plan.start_table(), 0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::analyze::JoinPred;
    use crate::gyo::decompose;
    use proptest::prelude::*;

    /// Random acyclic chain/star mixtures: table i joins some earlier table
    /// on fresh columns, guaranteeing acyclicity by construction.
    fn arb_acyclic_joins(n: usize) -> impl Strategy<Value = Vec<JoinPred>> {
        prop::collection::vec(0usize..n.max(1), n - 1..n).prop_map(move |parents| {
            (1..n)
                .map(|t| {
                    let p = parents[t - 1] % t; // earlier table
                    JoinPred { left: (p, t), right: (t, 0) }
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// GenSteps invariants (Algorithm 1): every plan edge's label occurs
        /// once (rightmost path) or twice (revisited subtree); the traversal
        /// is connected (consecutive steps share a plan node); the final
        /// step enters the root relation.
        #[test]
        fn gen_steps_structural_invariants(
            (n, joins, read) in (2usize..7).prop_flat_map(|n| {
                (arb_acyclic_joins(n), prop::collection::vec(any::<bool>(), n))
                    .prop_map(move |(j, read)| (n, j, read))
            }),
        ) {
            let dec = decompose(n, &joins);
            prop_assert!(!dec.cyclic);
            prop_assert_eq!(dec.components.len(), 1);
            let plan = TagPlan::from_join_tree(&dec.components[0], &dec);
            let steps = plan.gen_steps();

            // Under a random read set, every branch off the rightmost path
            // is one closed, even-length run of the list that leaves its
            // attach node and returns to it; the walk without every branch
            // starts at a kept table.
            let branches = plan.branches(|t| read[t]);
            let rightmost = plan.rightmost_path();
            for b in branches.iter().filter(|b| !rightmost.contains(&b.node)) {
                let mut labels = vec![plan.in_label[b.node].unwrap()];
                let mut stack = plan.children[b.node].clone();
                while let Some(m) = stack.pop() {
                    labels.push(plan.in_label[m].unwrap());
                    stack.extend(&plan.children[m]);
                }
                let at: Vec<usize> =
                    (0..steps.len()).filter(|&i| labels.contains(&steps[i])).collect();
                let span = at[0]..at[at.len() - 1] + 1;
                prop_assert_eq!(at.len(), span.len(), "branch {} is not one run", b.node);
                prop_assert!(span.len() % 2 == 0, "branch {} has odd length", b.node);
                let attach = plan.in_label[b.node];
                prop_assert_eq!(Some(steps[span.start]), attach);
                prop_assert_eq!(Some(steps[span.end - 1]), attach);
            }
            let kept = plan.without(|n| branches.iter().any(|b| b.node == n));
            let start = kept.start_table();
            prop_assert!(read[start] || start == plan.root_table(), "starts at table {}", start);
            let walk = kept.gen_steps();
            prop_assert_eq!(walk.len() % 2, 0);
            if let (Some(first), Some(last)) = (walk.first(), walk.last()) {
                prop_assert_eq!(first.table, kept.start_table());
                prop_assert_eq!(last.table, plan.root_table());
            }

            // Edge count: plan has len()-1 edges; steps length is between
            // edges (pure chain) and 2*edges (full backtracking).
            let edges = plan.len() - 1;
            prop_assert!(steps.len() >= edges);
            prop_assert!(steps.len() <= 2 * edges);

            // Each label occurs once or twice.
            for s in &steps {
                let count = steps.iter().filter(|&&x| x == *s).count();
                prop_assert!(count == 1 || count == 2, "label {s:?} occurs {count} times");
            }

            // The last step's table is the root relation.
            prop_assert_eq!(steps.last().unwrap().table, plan.root_table());
            // The first step's table is the start relation.
            prop_assert_eq!(steps.first().unwrap().table, plan.start_table());
        }

        /// Decomposition covers every table exactly once across components.
        #[test]
        fn decomposition_partitions_tables(n in 1usize..8, extra in 0usize..3) {
            let mut joins = Vec::new();
            for t in 1..n.saturating_sub(extra) {
                joins.push(JoinPred { left: (t - 1, 1), right: (t, 0) });
            }
            let dec = decompose(n, &joins);
            let mut seen: Vec<usize> =
                dec.components.iter().flat_map(|c| c.tables.clone()).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..n).collect::<Vec<_>>());
        }
    }
}
