//! Cost-based TAG plans: the root and the child order each join-tree
//! component runs in, chosen once per (plan, TAG) from the TAG's own counts.
//!
//! A [`QueryPlan`] holds, per component, one TAG plan per root its kept
//! tables allow ([`crate::plan`]); the child order at every node is left
//! open. It fixes where `GenSteps` starts (the rightmost leaf) and the order
//! siblings are reduced in. `choose` prices every root and child order
//! with `estimate`, a System R-style simulation of the three passes
//! (Selinger et al., SIGMOD 1979) over counts the TAG already holds, and
//! keeps the cheapest [`Shape`]. Communication is the cost, as in Beame,
//! Koutris & Suciu's model: signals and collection messages, plus the rows
//! collection carries and the roots the finish superstep visits, which cost
//! time the message count does not show.
//!
//! The inputs, per table `R` and edge label `l`:
//! - `|R|`, its tuple vertices, and `sel(R)`, the share of them its
//!   pushed-down filters pass, evaluated on at most 1 024 tuple
//!   vertices at a fixed stride (exact below that; subquery checks and seeds
//!   are left out);
//! - `edges(l)` and `distinct(l)`, the edges labelled `l` and the attribute
//!   vertices they reach ([`TagGraph::edge_counts`]).
//!
//! The bottom-up pass starts with `|R|·sel(R)` tuples at the start leaf.
//! A step from `a` tuples along `l` sends `a·edges(l)/|R|` signals and
//! reaches `distinct(l)·(1 − e^(−signals/distinct(l)))` attribute vertices,
//! drawn from a domain of `distinct(l)`. A step from `a` attribute vertices
//! of domain `dom` sends `a·min(1, distinct(l)/dom)·edges(l)/distinct(l)`
//! signals, each to its own tuple, of which `sel` stay active. A step that
//! returns from a subtree sends along the marks that survived: one per
//! surviving tuple, reaching `p·(1 − e^(−signals/p))` of the `p` attribute
//! vertices that entered it; or, from attribute vertices, the entry's
//! signals times the share of them that survived. Each edge `e` the later
//! passes walk then carries `m(e) = signals(e)·final(parent)/receivers(e)`
//! marks, the last bottom-up signals over it scaled to the parent's final
//! survivors; the top-down pass and the collection each send `m(e)`
//! messages per occurrence of `e` in the kept walk (one on its rightmost
//! path, two elsewhere). A semijoin branch is priced like any subtree the
//! bottom-up pass enters and leaves, except that the vertices entering the
//! top of a NOT EXISTS branch that no signal comes back to are the ones
//! that stay active. Collection rows follow: a union at an attribute
//! vertex holds its neighbours' rows, a first visit keeps the rows, and a
//! return to a tuple vertex carries the attribute vertex's whole union to
//! each of its marked tuples, each keeping its own share. The cost is
//! `messages + rows·ROW + roots·ROOT`.
//!
//! Ties go to the first candidate in name order: roots by relation name,
//! children by their edge label's relation and column names, semijoin
//! children first, orders lexicographically. A node's last child leads to
//! the walk's start, so it is a semijoin only when every child is. Nothing
//! depends on a table's index, so the FROM order cannot change the plan,
//! and nothing depends on threads or placement.

use crate::plan::QueryPlan;
use vcsql_query::tagplan::{Part, PlanNode, Step, TagPlan};
use vcsql_relation::RelError;
use vcsql_tag::TagGraph;

type Result<T> = std::result::Result<T, RelError>;

/// Tuple vertices a table's filter selectivity is evaluated on, at most.
const SAMPLE: usize = 1024;
/// Child orders enumerated per root; beyond it, each node's orders are
/// tried with every other node's fixed, once, in preorder.
const ORDERS: usize = 720;
/// A node with more children than this keeps them in name order.
const MAX_CHILDREN: usize = 6;
/// The cost of a row collection carries, in messages.
const ROW: f64 = 4.0;
/// The cost of a root the finish superstep visits, in messages.
const ROOT: f64 = 0.5;

/// The shape a [`QueryPlan`] runs in on one TAG: per component, the TAG
/// plan with its children ordered, its `GenSteps` list, and the plan less
/// the reduction-only branches whose keys are unique in the TAG, with that
/// plan's list (the walk of the top-down reduction and the collection).
#[derive(Debug, Clone)]
pub struct Shape {
    pub(crate) plans: Vec<TagPlan>,
    pub(crate) steps: Vec<Vec<Step>>,
    pub(crate) walks: Vec<TagPlan>,
    pub(crate) walk_steps: Vec<Vec<Step>>,
    pub(crate) estimates: Vec<Estimate>,
}

impl Shape {
    /// Number of join-graph components.
    pub fn component_count(&self) -> usize {
        self.plans.len()
    }

    /// The table (index into the analyzed query) component `ci` is rooted at.
    pub fn root_table(&self, ci: usize) -> usize {
        self.plans[ci].root_table()
    }

    /// The table component `ci`'s bottom-up reduction starts at.
    pub fn start_table(&self, ci: usize) -> usize {
        self.plans[ci].start_table()
    }

    /// Total traversal steps over all components: the supersteps of the
    /// bottom-up reduction. The top-down reduction and the collection each
    /// run once per step of the walk without the dropped branches.
    pub fn traversal_steps(&self) -> usize {
        self.steps.iter().map(Vec::len).sum()
    }

    /// The messages the estimate predicts over every component.
    pub fn predicted_messages(&self) -> f64 {
        self.estimates.iter().map(|e| e.messages).sum()
    }
}

/// What [`estimate`] predicts for one component's candidate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Estimate {
    /// Signals of both reductions and messages of the collection.
    pub(crate) messages: f64,
    /// Rows the collection messages carry.
    pub(crate) rows: f64,
    /// Roots the finish superstep (or the gather) visits.
    pub(crate) roots: f64,
}

impl Estimate {
    fn cost(&self) -> f64 {
        self.messages + ROW * self.rows + ROOT * self.roots
    }
}

/// The cheapest shape of `plan` on `tag`.
pub(crate) fn choose(plan: &QueryPlan, tag: &TagGraph) -> Result<Shape> {
    let inputs = Inputs::gather(plan, tag)?;
    let chosen = (0..plan.components.len()).map(|ci| {
        let mut best: Option<Candidate> = None;
        each_candidate(plan, &inputs, ci, |est, p, dropped| {
            if best.as_ref().is_none_or(|b| est.cost() < b.0.cost()) {
                best = Some((est, p.clone(), dropped.to_vec()));
            }
        });
        best.expect("every component has a root")
    });
    Ok(Shape::of(chosen))
}

/// One component's candidate: its estimate, its plan with children
/// ordered, and the nodes whose branch the TAG drops.
pub(crate) type Candidate = (Estimate, TagPlan, Vec<bool>);

impl Shape {
    /// The shape running each component as its candidate says.
    pub(crate) fn of(candidates: impl IntoIterator<Item = Candidate>) -> Shape {
        let mut shape = Shape {
            plans: Vec::new(),
            steps: Vec::new(),
            walks: Vec::new(),
            walk_steps: Vec::new(),
            estimates: Vec::new(),
        };
        for (est, p, dropped) in candidates {
            let walk = p.without(|n| dropped[n]);
            shape.steps.push(p.gen_steps());
            shape.walk_steps.push(walk.gen_steps());
            shape.plans.push(p);
            shape.walks.push(walk);
            shape.estimates.push(est);
        }
        shape
    }
}

/// Call `f` with every candidate of component `ci` — each root, each child
/// order — with its estimate and the nodes whose branch the TAG drops, in
/// name order.
pub(crate) fn each_candidate(
    plan: &QueryPlan,
    inputs: &Inputs<'_>,
    ci: usize,
    mut f: impl FnMut(Estimate, &TagPlan, &[bool]),
) {
    let mut rooted: Vec<_> = plan.components[ci].iter().collect();
    rooted.sort_by(|x, y| {
        let name = |r: &crate::plan::Rooted| &plan.table(r.plan.root_table()).relation;
        name(x).cmp(name(y))
    });
    let primary = ci == plan.primary;
    for r in rooted {
        let mut p = r.plan.clone();
        let mut dropped = vec![false; p.len()];
        for b in &r.branches {
            dropped[b.node] = b.semi || b.keys.iter().all(|&k| inputs.unique(k));
        }
        let key = |n: usize| (!p.is_semi(n), p.in_label[n].map(|s| inputs.name(s)));
        let keys: Vec<_> = (0..p.len()).map(key).collect();
        for children in &mut p.children {
            children.sort_by(|&x, &y| keys[x].cmp(&keys[y]));
        }
        let counts = Counts::of(&p, inputs);
        let mut price = |p: &TagPlan| {
            let est = estimate(p, &dropped, &counts, primary);
            f(est, p, &dropped);
            est
        };
        orders(p, &mut price);
    }
}

/// Try the child orders of `p` (children in name order), handing each to
/// `price`: every combination while there are at most [`ORDERS`], else each
/// node's orders in turn with the others held at the best so far.
fn orders(mut p: TagPlan, price: &mut impl FnMut(&TagPlan) -> Estimate) {
    let mut multi = Vec::new();
    let mut stack = vec![p.root];
    while let Some(n) = stack.pop() {
        if (2..=MAX_CHILDREN).contains(&p.children[n].len()) {
            multi.push(n);
        }
        stack.extend(p.children[n].iter().rev());
    }
    let semi_last = |order: &[usize]| {
        order.last().is_some_and(|&l| p.is_semi(l)) && !order.iter().all(|&c| p.is_semi(c))
    };
    let perms: Vec<Vec<Vec<usize>>> = multi
        .iter()
        .map(|&n| permutations(&p.children[n]).into_iter().filter(|o| !semi_last(o)).collect())
        .collect();
    let total = perms.iter().try_fold(1usize, |acc, ps| acc.checked_mul(ps.len()));
    if total.is_some_and(|t| t <= ORDERS) {
        let mut at = vec![0usize; multi.len()];
        loop {
            for (i, &n) in multi.iter().enumerate() {
                p.children[n].clone_from(&perms[i][at[i]]);
            }
            price(&p);
            // Odometer, last node fastest.
            let Some(i) = (0..at.len()).rev().find(|&i| at[i] + 1 < perms[i].len()) else { return };
            at[i] += 1;
            at[i + 1..].fill(0);
        }
    }
    let mut best = price(&p).cost();
    for (i, &n) in multi.iter().enumerate() {
        let mut keep = p.children[n].clone();
        for order in &perms[i][1..] {
            p.children[n].clone_from(order);
            let cost = price(&p).cost();
            if cost < best {
                best = cost;
                keep.clone_from(order);
            }
        }
        p.children[n] = keep;
    }
}

/// Every order of `items`, lexicographic in their positions.
fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.to_vec();
        let first = rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, first);
            out.push(tail);
        }
    }
    out
}

/// The statistics of one statement's tables on one TAG.
pub(crate) struct Inputs<'t> {
    plan: &'t QueryPlan,
    tag: &'t TagGraph,
    /// Per table, its tuple vertices.
    tuples: Vec<f64>,
    /// Per table, the share of its sampled tuples its filters pass.
    sel: Vec<f64>,
}

impl<'t> Inputs<'t> {
    pub(crate) fn gather(plan: &'t QueryPlan, tag: &'t TagGraph) -> Result<Inputs<'t>> {
        let (mut tuples, mut sel) = (Vec::new(), Vec::new());
        for t in 0..plan.table_count() {
            let vertices = match tag.relation_label(&plan.table(t).relation) {
                Some(label) => tag.graph().vertices_with_label(label),
                None => &[],
            };
            let filters = plan.filters(t)?;
            let n = vertices.len();
            let k = n.min(SAMPLE);
            let mut share = 1.0;
            if !filters.is_empty() && k > 0 {
                let passed = (0..k)
                    .filter(|&i| {
                        let tuple = tag.tuple(vertices[i * n / k]).expect("a tuple vertex");
                        filters.iter().all(|e| e.passes(tuple).unwrap_or(true))
                    })
                    .count();
                // A sample that passes nothing still stands for some tuples.
                let passed = if k < n { passed.max(1) } else { passed };
                share = passed as f64 / k as f64;
            }
            tuples.push(n as f64);
            sel.push(share);
        }
        Ok(Inputs { plan, tag, tuples, sel })
    }

    /// `(edges, distinct)` of step `s`'s label; zero when the column has
    /// none (binding reports why).
    fn counts(&self, s: Step) -> (f64, f64) {
        let rel = &self.plan.table(s.table).relation;
        let c = self.tag.column_label(rel, s.col).map(|l| self.tag.edge_counts(l));
        c.map_or((0.0, 0.0), |c| (c.edges as f64, c.distinct as f64))
    }

    /// Whether step `s`'s label is unique in the TAG.
    pub(crate) fn unique(&self, s: Step) -> bool {
        let rel = &self.plan.table(s.table).relation;
        self.tag.column_label(rel, s.col).is_some_and(|l| self.tag.is_unique(l))
    }

    /// Step `s`'s relation and column names: the order ties are broken in.
    fn name(&self, s: Step) -> (&str, &str) {
        let t = self.plan.table(s.table);
        (&t.relation, &t.schema.columns[s.col].name)
    }
}

/// Per node of one rooted plan, the counts its estimate reads: the edges
/// and distinct attribute vertices of the label into it, and for a relation
/// node its tuples and filter share.
pub(crate) struct Counts {
    edges: Vec<f64>,
    distinct: Vec<f64>,
    tuples: Vec<f64>,
    sel: Vec<f64>,
}

impl Counts {
    fn of(p: &TagPlan, inputs: &Inputs<'_>) -> Counts {
        let n = p.len();
        let mut c = Counts {
            edges: vec![0.0; n],
            distinct: vec![0.0; n],
            tuples: vec![0.0; n],
            sel: vec![1.0; n],
        };
        for node in 0..n {
            if let Some(s) = p.in_label[node] {
                (c.edges[node], c.distinct[node]) = inputs.counts(s);
            }
            if let PlanNode::Rel { table } = p.nodes[node] {
                c.tuples[node] = inputs.tuples[table];
                c.sel[node] = inputs.sel[table];
            }
        }
        c
    }
}

/// Estimate the three passes of plan `p` (children ordered), less the
/// `dropped` branches in the later two; `primary` components also price
/// their roots' finish.
pub(crate) fn estimate(p: &TagPlan, dropped: &[bool], c: &Counts, primary: bool) -> Estimate {
    let mut sim = Sim::new(p, c);
    let root = sim.bottom_up();
    let walk = p.without(|n| dropped[n]);
    sim.top_down(&walk, root);
    let rows = sim.collect(&walk);
    let roots = sim.fin[p.root];
    Estimate { messages: sim.messages, rows, roots: if primary { roots } else { 0.0 } }
}

/// `x / y`, or 0 when `y` is not positive.
fn ratio(x: f64, y: f64) -> f64 {
    if y > 0.0 {
        x / y
    } else {
        0.0
    }
}

/// Vertices reached when `signals` land uniformly on `of` of them.
fn reached(of: f64, signals: f64) -> f64 {
    if of > 0.0 {
        of * (1.0 - (-signals / of).exp())
    } else {
        0.0
    }
}

/// The state of one [`estimate`], per plan node.
struct Sim<'a> {
    p: &'a TagPlan,
    c: &'a Counts,
    messages: f64,
    /// Attribute nodes: the distinct values their vertices are drawn from.
    dom: Vec<f64>,
    /// Relation nodes: the parent's attribute vertices that entered them.
    senders: Vec<f64>,
    /// Active vertices once the node's subtree is reduced.
    up: Vec<f64>,
    /// The last bottom-up signals over the edge into the node, and their
    /// receivers on the parent side.
    last: Vec<(f64, f64)>,
    /// Vertices left after both reductions, and marks on the edge into the
    /// node.
    fin: Vec<f64>,
    marks: Vec<f64>,
}

impl<'a> Sim<'a> {
    fn new(p: &'a TagPlan, c: &'a Counts) -> Sim<'a> {
        let n = p.len();
        Sim {
            p,
            c,
            messages: 0.0,
            dom: vec![0.0; n],
            senders: vec![0.0; n],
            up: vec![0.0; n],
            last: vec![(0.0, 0.0); n],
            fin: vec![0.0; n],
            marks: vec![0.0; n],
        }
    }

    fn is_rel(&self, n: usize) -> bool {
        matches!(self.p.nodes[n], PlanNode::Rel { .. })
    }

    /// A first step from `active` vertices of `from` to its neighbour `to`
    /// along the edge `edge` (the lower node): its signals, receivers and
    /// the receivers that stay active.
    fn enter(&mut self, from: usize, to: usize, edge: usize, active: f64) -> (f64, f64, f64) {
        let (e, d) = (self.c.edges[edge], self.c.distinct[edge]);
        let (signals, receivers, active) = if self.is_rel(from) {
            let signals = active * ratio(e, self.c.tuples[from]);
            self.dom[to] = d;
            let r = reached(d, signals);
            (signals, r, r)
        } else {
            let sending = active * ratio(d, self.dom[from]).min(1.0);
            self.senders[to] = sending;
            let signals = sending * ratio(e, d);
            (signals, signals, signals * self.c.sel[to])
        };
        self.messages += signals;
        (signals, receivers, active)
    }

    /// The bottom-up pass: the rightmost path up from its leaf, each node's
    /// other children visited last to first. Returns the root's survivors.
    fn bottom_up(&mut self) -> f64 {
        let path = self.p.rightmost_path();
        let leaf = path[path.len() - 1];
        let mut active = self.c.tuples[leaf] * self.c.sel[leaf];
        for i in (0..path.len()).rev() {
            let n = path[i];
            for &c in self.p.children[n].iter().rev() {
                if path.get(i + 1) != Some(&c) {
                    active = self.excursion(n, c, active);
                }
            }
            self.up[n] = active;
            if i > 0 {
                let (signals, receivers, next) = self.enter(n, path[i - 1], n, active);
                self.last[n] = (signals, receivers);
                active = next;
            }
        }
        active
    }

    /// Enter child `c` of `p` from `active` vertices, reduce its subtree and
    /// return along the surviving marks; `p`'s vertices that stay active.
    fn excursion(&mut self, p: usize, c: usize, active: f64) -> f64 {
        let (entered, receivers, mut below) = self.enter(p, c, c, active);
        for &d in self.p.children[c].iter().rev() {
            below = self.excursion(c, d, below);
        }
        self.up[c] = below;
        let (signals, back) = if self.is_rel(c) {
            (below, reached(self.senders[c], below))
        } else {
            let s = entered * ratio(below, receivers).min(1.0);
            (s, s)
        };
        self.messages += signals;
        self.last[c] = (signals, back);
        match self.p.part[c] {
            Part::Anti => (active - back).max(0.0),
            Part::Join | Part::Semi => back,
        }
    }

    /// The top-down pass over `walk` from `root` survivors: the final
    /// vertices and marks of every kept node, and the messages of this
    /// pass and of the collection.
    fn top_down(&mut self, walk: &TagPlan, root: f64) {
        self.fin[walk.root] = root;
        let path = walk.rightmost_path();
        let mut stack = vec![walk.root];
        while let Some(p) = stack.pop() {
            for &c in &walk.children[p] {
                let (signals, receivers) = self.last[c];
                let marks = signals * ratio(self.fin[p], receivers).min(1.0);
                self.marks[c] = marks;
                self.fin[c] =
                    if self.is_rel(c) { marks.min(self.up[c]) } else { reached(self.up[c], marks) };
                let times = if path.contains(&c) { 1.0 } else { 2.0 };
                self.messages += 2.0 * times * marks;
                stack.push(c);
            }
        }
    }

    /// The rows the collection over `walk` carries.
    fn collect(&self, walk: &TagPlan) -> f64 {
        let path = walk.rightmost_path();
        let mut carried = 0.0;
        let mut rows = 1.0; // per vertex of the current node
        for i in (0..path.len()).rev() {
            let n = path[i];
            for &c in walk.children[n].iter().rev() {
                if path.get(i + 1) != Some(&c) {
                    rows = self.collect_excursion(walk, n, c, rows, &mut carried);
                }
            }
            if i > 0 {
                carried += self.marks[n] * rows;
                rows = ratio(self.marks[n] * rows, self.fin[path[i - 1]]);
            }
        }
        carried
    }

    fn collect_excursion(
        &self,
        walk: &TagPlan,
        p: usize,
        c: usize,
        rows: f64,
        carried: &mut f64,
    ) -> f64 {
        let m = self.marks[c];
        *carried += m * rows;
        let mut below = ratio(m * rows, self.fin[c]);
        for &d in walk.children[c].iter().rev() {
            below = self.collect_excursion(walk, c, d, below, carried);
        }
        *carried += m * below;
        if self.is_rel(p) {
            below * ratio(self.fin[c], m) // each tuple keeps its own share
        } else {
            ratio(m * below, self.fin[p]) // the union of its neighbours'
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TagJoinExecutor;
    use vcsql_bsp::EngineConfig;
    use vcsql_workload::{tpcds, tpch};

    /// Every candidate shape of every workload statement at SF 0.01, seed
    /// 42, run sequentially: each suite's chosen shapes send at most 1.15×
    /// the sum of each statement's fewest messages over its candidates.
    /// Prints, per statement, the chosen shape's predicted and counted
    /// messages against the candidates' range.
    #[test]
    fn chosen_shapes_send_near_the_fewest_messages() {
        for (suite, db, queries) in [
            ("TPC-H", tpch::generate(0.01, 42), tpch::queries()),
            ("TPC-DS", tpcds::generate(0.01, 42), tpcds::queries()),
        ] {
            let tag = TagGraph::build(&db);
            let exec = TagJoinExecutor::new(&tag, EngineConfig::sequential());
            let messages =
                |plan: &QueryPlan| exec.execute_plan(plan).unwrap().stats.totals.messages;
            let (mut chosen_total, mut min_total) = (0, 0);
            println!("{suite}: statement, predicted, chosen, fewest, most, candidates");
            for q in queries {
                let plan = QueryPlan::prepare(q.sql, tag.schemas()).unwrap();
                let shape = plan.shape(&tag).unwrap();
                let chosen = messages(&plan);
                let inputs = Inputs::gather(&plan, &tag).unwrap();
                let mut counted = Vec::new();
                let primary = plan.primary;
                let mut candidates = Vec::new();
                each_candidate(&plan, &inputs, primary, |est, p, dropped| {
                    candidates.push((est, p.clone(), dropped.to_vec()));
                });
                for candidate in candidates {
                    let parts = (0..shape.component_count()).map(|ci| {
                        if ci == primary {
                            candidate.clone()
                        } else {
                            let walk = &shape.walks[ci];
                            let dropped = (0..walk.len()).map(|n| !reachable(walk, n)).collect();
                            (shape.estimates[ci], shape.plans[ci].clone(), dropped)
                        }
                    });
                    plan.force(&tag, Shape::of(parts));
                    counted.push(messages(&plan));
                }
                let (fewest, most) = (counted.iter().min().unwrap(), counted.iter().max().unwrap());
                println!(
                    "  {} {:.0} {chosen} {fewest} {most} {}",
                    q.id,
                    shape.predicted_messages(),
                    counted.len()
                );
                chosen_total += chosen;
                min_total += fewest;
            }
            println!("{suite}: chosen {chosen_total}, sum of fewest {min_total}");
            assert!(
                chosen_total as f64 <= 1.15 * min_total as f64,
                "{suite}: chosen shapes send {chosen_total} messages, fewest {min_total}"
            );
        }
    }

    /// Past 720 combinations per root, each node's orders are tried once
    /// with the others held: a fact with six dimensions, one of which has
    /// two of its own, has 6!·2! = 1 440 combinations and is priced
    /// 1 + 719 + 1 times, every candidate a reordering of the same plan. A
    /// node with seven children keeps them in name order.
    #[test]
    fn wide_plans_are_ordered_one_node_at_a_time() {
        use vcsql_query::analyze::JoinPred;
        use vcsql_query::gyo::decompose;
        let plan_of = |dims: usize, joins: &mut Vec<JoinPred>| {
            joins.extend((1..=dims).map(|d| JoinPred { left: (0, d), right: (d, 0) }));
            let mut dec = decompose(joins.len() + 1, joins);
            dec.components[0].reroot(0);
            TagPlan::from_join_tree(&dec.components[0], &dec)
        };
        let wide = plan_of(
            6,
            &mut vec![
                JoinPred { left: (1, 1), right: (7, 0) },
                JoinPred { left: (1, 2), right: (8, 0) },
            ],
        );
        let sorted = |p: &TagPlan| {
            let mut children = p.children.clone();
            children.iter_mut().for_each(|c| c.sort_unstable());
            children
        };
        let mut priced = 0;
        orders(wide.clone(), &mut |p| {
            priced += 1;
            assert_eq!(sorted(p), sorted(&wide), "a reordering of the same plan");
            Estimate { messages: p.gen_steps().len() as f64, ..Estimate::default() }
        });
        assert_eq!(priced, 1 + 719 + 1);

        let widest = plan_of(7, &mut Vec::new());
        let mut seen = Vec::new();
        orders(widest.clone(), &mut |p| {
            seen.push(p.children.clone());
            Estimate::default()
        });
        assert_eq!(seen, [widest.children]);
    }

    /// Whether node `n` hangs under `p`'s root.
    fn reachable(p: &TagPlan, n: usize) -> bool {
        let mut stack = vec![p.root];
        while let Some(m) = stack.pop() {
            if m == n {
                return true;
            }
            stack.extend(&p.children[m]);
        }
        false
    }
}
