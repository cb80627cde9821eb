//! TAG construction and maintenance.
//!
//! The load path works on flat arrays: labels are numbers from the moment a
//! schema is registered, every undirected edge is one entry of one link
//! list, and payload values sit in one arena in vertex-id order. Freezing
//! compacts the arena in place, buckets the links by label and hands them to
//! [`GraphBuilder`], whose counting sort then has nothing left to sort.

use vcsql_bsp::{Graph, GraphBuilder, LabelId, PartitionStrategy, Partitioning, VertexId};
use vcsql_relation::{fx, Database, FxHashMap, RelError, Relation, Schema, Tuple, Value};

/// Decides which columns receive attribute vertices (paper Section 3).
///
/// Refusal is per column where joins are concerned: a column the policy
/// skips has no edge label at all, and a column *any* of whose non-NULL
/// values the policy refused (a string over `max_string_len`) keeps the
/// edges of its other values but reports no
/// [`column label`](TagGraph::column_label) — a join through it would miss
/// the refused values silently, so binding such a join is an error instead.
#[derive(Debug, Clone)]
pub struct MaterializePolicy {
    /// Materialize strings only up to this length (long descriptions and
    /// comments are unlikely join keys). `None` = no limit.
    pub max_string_len: Option<usize>,
    /// Extra `(relation, column)` pairs to skip on top of the schema's
    /// per-column `materialize` flags.
    pub skip: Vec<(String, String)>,
}

impl Default for MaterializePolicy {
    fn default() -> Self {
        MaterializePolicy { max_string_len: Some(64), skip: Vec::new() }
    }
}

impl MaterializePolicy {
    /// Materialize everything the schema allows, regardless of length.
    pub fn all() -> Self {
        MaterializePolicy { max_string_len: None, skip: Vec::new() }
    }

    fn column_allowed(&self, schema: &Schema, col: usize) -> bool {
        let c = &schema.columns[col];
        c.materialize && !self.skip.iter().any(|(r, n)| r == &schema.name && n == &c.name)
    }

    /// Whether a non-NULL value gets an attribute vertex.
    fn value_allowed(&self, v: &Value) -> bool {
        match v {
            Value::Str(s) => self.max_string_len.is_none_or(|m| s.len() <= m),
            _ => true,
        }
    }
}

/// Attribute-vertex label per value type, indexed by [`attr_type`].
const ATTR_LABELS: [&str; 5] = ["@bool", "@int", "@float", "@str", "@date"];

/// Index into [`ATTR_LABELS`].
fn attr_type(v: &Value) -> u8 {
    match v {
        Value::Bool(_) => 0,
        Value::Int(_) => 1,
        Value::Float(_) => 2,
        Value::Str(_) => 3,
        Value::Date(_) => 4,
        Value::Null => unreachable!("NULL has no attribute vertex"),
    }
}

/// A vertex label inside the builder, numbered when its schema is
/// registered so that inserting a tuple formats and clones no name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VLabel {
    /// Tuple vertex of `relations[i]`.
    Rel(u32),
    /// Attribute vertex of type `ATTR_LABELS[i]`.
    Attr(u8),
}

/// A registered relation: its schema plus what inserting a tuple needs per
/// column, decided once.
struct Registered {
    schema: Schema,
    /// Columns that receive attribute vertices under the builder's policy.
    materialized: Vec<bool>,
    /// Materialized columns that held a non-NULL value the policy refused.
    refused: Vec<bool>,
    /// Builder-wide number of column 0's edge label `rel.col`; column `c`'s
    /// is `first_edge_label + c`.
    first_edge_label: u32,
}

/// One undirected TAG edge: `tuple` holds the value of `attr` in the column
/// whose edge label is number `label`.
#[derive(Debug, Clone, Copy)]
struct Link {
    tuple: VertexId,
    label: u32,
    attr: VertexId,
}

/// Mutable TAG under construction / maintenance.
///
/// Inserting a tuple appends its vertex, its values, the attribute vertices
/// of its first-seen values and one link per materialized field; deleting
/// one sets a tombstone. Nothing already stored is visited either way — the
/// paper's "no reorganization" maintenance claim. Freezing into the CSR
/// [`Graph`] used by the engine is a linear pass.
pub struct TagBuilder {
    policy: MaterializePolicy,
    relations: Vec<Registered>,
    /// Per vertex, in id order: its label, where its values start in
    /// `values`, and whether it is a deleted tuple vertex.
    vlabel: Vec<VLabel>,
    value_start: Vec<u32>,
    deleted: Vec<bool>,
    /// Payloads in vertex-id order: a tuple vertex's fields, an attribute
    /// vertex's one value.
    values: Vec<Value>,
    /// Every link ever made, in insertion order (so by ascending tuple
    /// vertex); the links of deleted tuples are skipped at freeze.
    links: Vec<Link>,
    attr_index: FxHashMap<Value, VertexId>,
}

impl TagBuilder {
    /// Empty builder with the given policy.
    pub fn new(policy: MaterializePolicy) -> TagBuilder {
        TagBuilder {
            policy,
            relations: Vec::new(),
            vlabel: Vec::new(),
            value_start: Vec::new(),
            deleted: Vec::new(),
            values: Vec::new(),
            links: Vec::new(),
            attr_index: fx::map_with_capacity(1024),
        }
    }

    /// Register a relation's schema (needed before inserting its tuples).
    pub fn add_schema(&mut self, schema: Schema) {
        if self.relation_index(&schema.name).is_some() {
            return;
        }
        let materialized: Vec<bool> =
            (0..schema.arity()).map(|c| self.policy.column_allowed(&schema, c)).collect();
        let refused = vec![false; schema.arity()];
        let first_edge_label =
            self.relations.last().map_or(0, |r| r.first_edge_label + r.schema.arity() as u32);
        self.relations.push(Registered { schema, materialized, refused, first_edge_label });
    }

    fn relation_index(&self, rel: &str) -> Option<usize> {
        self.relations.iter().position(|r| r.schema.name == rel)
    }

    /// Insert one tuple of relation `rel`: creates its tuple vertex, creates
    /// any missing attribute vertices, and links them (steps (1)–(3) of the
    /// encoding). Cost is local: O(arity) plus hash lookups.
    pub fn insert_tuple(&mut self, rel: &str, tuple: Tuple) -> Result<VertexId, RelError> {
        let r =
            self.relation_index(rel).ok_or_else(|| RelError::UnknownRelation(rel.to_string()))?;
        self.insert_row(r, tuple.0.into_vec().into_iter())
    }

    /// [`TagBuilder::insert_tuple`] for registered relation number `r`.
    fn insert_row(
        &mut self,
        r: usize,
        row: impl ExactSizeIterator<Item = Value>,
    ) -> Result<VertexId, RelError> {
        let arity = self.relations[r].schema.arity();
        if row.len() != arity {
            return Err(RelError::ArityMismatch { expected: arity, found: row.len() });
        }
        let tv = self.fresh_vertex(VLabel::Rel(r as u32));
        let start = self.values.len();
        self.values.extend(row);
        let first_edge_label = self.relations[r].first_edge_label;
        for c in 0..arity {
            let v = &self.values[start + c];
            if !self.relations[r].materialized[c] || v.is_null() {
                continue; // NULL never joins; no vertex for it
            }
            if !self.policy.value_allowed(v) {
                self.relations[r].refused[c] = true;
                continue;
            }
            let av = match self.attr_index.get(v) {
                Some(&av) => av,
                None => {
                    let v = v.clone();
                    let av = self.fresh_vertex(VLabel::Attr(attr_type(&v)));
                    self.values.push(v.clone());
                    self.attr_index.insert(v, av);
                    av
                }
            };
            self.links.push(Link { tuple: tv, label: first_edge_label + c as u32, attr: av });
        }
        Ok(tv)
    }

    /// Delete a tuple vertex and its incident edges. The attribute vertices
    /// stay (they may serve other tuples; an isolated attribute vertex is
    /// harmless and is dropped at freeze time).
    pub fn delete_tuple(&mut self, tv: VertexId) -> Result<(), RelError> {
        match self.vlabel.get(tv as usize) {
            Some(VLabel::Rel(_)) if !self.deleted[tv as usize] => {
                self.deleted[tv as usize] = true;
                Ok(())
            }
            _ => Err(RelError::Other(format!("vertex {tv} is not a live tuple vertex"))),
        }
    }

    /// A new vertex whose values start at the arena's current end.
    fn fresh_vertex(&mut self, label: VLabel) -> VertexId {
        let id = self.vlabel.len() as VertexId;
        self.vlabel.push(label);
        self.value_start.push(u32::try_from(self.values.len()).expect("arena offsets are u32"));
        self.deleted.push(false);
        id
    }

    /// Freeze into the immutable, executable [`TagGraph`]. Deleted and
    /// isolated-attribute vertices are dropped and ids are compacted.
    pub fn build(self) -> TagGraph {
        let TagBuilder {
            policy: _,
            relations,
            vlabel,
            mut value_start,
            deleted,
            mut values,
            links,
            mut attr_index,
        } = self;
        let live = |l: &&Link| !deleted[l.tuple as usize];

        // Keep live tuple vertices and attribute vertices with >= 1 edge.
        let mut keep: Vec<bool> = vlabel
            .iter()
            .zip(&deleted)
            .map(|(l, &dead)| matches!(l, VLabel::Rel(_)) && !dead)
            .collect();
        for l in links.iter().filter(live) {
            keep[l.attr as usize] = true;
        }

        let mut gb = GraphBuilder::new();
        // Intern every relation's vertex label and every materialized
        // column's edge label up front, in schema order, so empty relations
        // still resolve (queries over them return empty results instead of
        // "unknown label" errors) and label ids do not depend on the data.
        let mut rel_labels = Vec::with_capacity(relations.len());
        let mut edge_labels: Vec<Option<LabelId>> = Vec::new();
        for r in &relations {
            rel_labels.push(gb.vertex_label(&r.schema.name));
            for (col, &materialized) in r.schema.columns.iter().zip(&r.materialized) {
                let name = format!("{}.{}", r.schema.name, col.name);
                edge_labels.push(materialized.then(|| gb.edge_label(&name)));
            }
        }

        // Vertices in id order, their values moved down over the dropped
        // ones' (a no-op when nothing was dropped).
        let mut remap = vec![u32::MAX; vlabel.len()];
        let mut attr_labels = [None; ATTR_LABELS.len()];
        value_start.push(u32::try_from(values.len()).expect("arena offsets are u32"));
        let mut end = 0usize;
        for (i, &label) in vlabel.iter().enumerate() {
            if !keep[i] {
                continue;
            }
            let label = match label {
                VLabel::Rel(r) => rel_labels[r as usize],
                VLabel::Attr(a) => *attr_labels[a as usize]
                    .get_or_insert_with(|| gb.vertex_label(ATTR_LABELS[a as usize])),
            };
            let v = gb.add_vertex(label);
            remap[i] = v;
            let from = value_start[i] as usize..value_start[i + 1] as usize;
            value_start[v as usize] = end as u32;
            for k in from {
                values.swap(end, k);
                end += 1;
            }
        }
        value_start[gb.vertex_count()] = end as u32;
        value_start.truncate(gb.vertex_count() + 1);
        value_start.shrink_to_fit();
        values.truncate(end);
        values.shrink_to_fit();

        // Live links bucketed by label: fed label by label, and within a
        // label by ascending tuple vertex, every vertex's CSR range comes
        // out of `finish` already sorted.
        let mut bucket = vec![0usize; edge_labels.len() + 1];
        for l in links.iter().filter(live) {
            bucket[l.label as usize + 1] += 1;
        }
        for k in 1..bucket.len() {
            bucket[k] += bucket[k - 1];
        }
        let mut by_label = vec![(0, 0); bucket[edge_labels.len()]];
        for l in links.iter().filter(live) {
            let slot = &mut bucket[l.label as usize];
            by_label[*slot] = (remap[l.tuple as usize], remap[l.attr as usize]);
            *slot += 1;
        }
        drop(links);
        // `bucket[k]` is now where label `k`'s links end.
        let mut from = 0;
        for (label, &to) in edge_labels.iter().zip(&bucket) {
            for &(tv, av) in &by_label[from..to] {
                let label = label.expect("links follow materialized columns");
                gb.add_undirected_edge(tv, av, label);
            }
            from = to;
        }
        drop(by_label);
        let graph = gb.finish();

        // The value -> attribute-vertex index, moved over to compacted ids.
        attr_index.retain(|_, v| {
            let kept = keep[*v as usize];
            *v = remap[*v as usize];
            kept
        });

        // Per relation: LabelId of each column's edge label (None when the
        // policy skipped the column or refused one of its values).
        let mut col_labels: FxHashMap<String, Vec<Option<LabelId>>> = FxHashMap::default();
        let mut schemas = Vec::with_capacity(relations.len());
        for r in relations {
            let first = r.first_edge_label as usize;
            let labels = edge_labels[first..first + r.schema.arity()]
                .iter()
                .zip(&r.refused)
                .map(|(&label, &refused)| label.filter(|_| !refused))
                .collect();
            col_labels.insert(r.schema.name.clone(), labels);
            schemas.push(r.schema);
        }

        TagGraph { graph, values, value_start, attr_index, schemas, col_labels }
    }
}

/// Size statistics for the loading experiments (Fig 14 shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagStats {
    pub tuple_vertices: usize,
    pub attr_vertices: usize,
    /// Directed edge count (2x the undirected TAG edges).
    pub edges: usize,
    /// Approximate loaded size in bytes (topology + payloads + value index).
    pub bytes: usize,
}

/// The frozen, executable TAG: CSR graph + payload arena + value index + the
/// source schemas.
pub struct TagGraph {
    graph: Graph,
    /// Every vertex's payload in vertex-id order — a tuple vertex's fields,
    /// an attribute vertex's one value — so the rows a superstep walks in id
    /// order are next to each other whatever the allocator did at load time.
    values: Vec<Value>,
    /// `values[value_start[v]..value_start[v + 1]]` is `v`'s payload.
    value_start: Vec<u32>,
    attr_index: FxHashMap<Value, VertexId>,
    schemas: Vec<Schema>,
    col_labels: FxHashMap<String, Vec<Option<LabelId>>>,
}

impl TagGraph {
    /// Encode a whole database with the default policy.
    pub fn build(db: &Database) -> TagGraph {
        TagGraph::build_with_policy(db, MaterializePolicy::default())
    }

    /// Encode a whole database with an explicit materialization policy.
    pub fn build_with_policy(db: &Database, policy: MaterializePolicy) -> TagGraph {
        let mut b = TagBuilder::new(policy);
        for rel in db.relations() {
            b.add_schema(rel.schema.clone());
        }
        for rel in db.relations() {
            let r = b.relation_index(rel.name()).expect("schema registered above");
            for t in &rel.tuples {
                b.insert_row(r, t.0.iter().cloned()).expect("tuples match their schema");
            }
        }
        b.build()
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    #[inline]
    fn payload(&self, v: VertexId) -> &[Value] {
        let (start, end) = (self.value_start[v as usize], self.value_start[v as usize + 1]);
        &self.values[start as usize..end as usize]
    }

    /// The tuple stored at a tuple vertex.
    #[inline]
    pub fn tuple(&self, v: VertexId) -> Option<&[Value]> {
        self.is_tuple_vertex(v).then(|| self.payload(v))
    }

    /// The value of an attribute vertex.
    #[inline]
    pub fn attr_value(&self, v: VertexId) -> Option<&Value> {
        if self.is_tuple_vertex(v) {
            None
        } else {
            self.payload(v).first()
        }
    }

    /// True iff `v` is a tuple vertex: relation labels are interned before
    /// any attribute-type label, so they are the first `schemas.len()` ids.
    #[inline]
    pub fn is_tuple_vertex(&self, v: VertexId) -> bool {
        (self.graph.label_of(v).0 as usize) < self.schemas.len()
    }

    /// Place this TAG over `machines` simulated machines with `strategy`.
    /// Attribute vertices anchor the placement: under the locality-aware
    /// strategies they hash-place and tuple vertices cluster around them.
    /// Running under a placement changes the network accounting, never a
    /// result.
    pub fn partition(&self, strategy: &PartitionStrategy, machines: usize) -> Partitioning {
        strategy.partition(&self.graph, machines, &|v| !self.is_tuple_vertex(v))
    }

    /// The attribute vertex representing `value`, if materialized.
    pub fn attr_vertex(&self, value: &Value) -> Option<VertexId> {
        self.attr_index.get(value).copied()
    }

    /// Vertex label of a relation's tuple vertices.
    pub fn relation_label(&self, rel: &str) -> Option<LabelId> {
        self.graph.vertex_label_id(rel)
    }

    /// The edge label for `rel.column` (None if the column is not
    /// materialized, or held a value the policy refused — see
    /// [`MaterializePolicy`]).
    pub fn column_label(&self, rel: &str, col: usize) -> Option<LabelId> {
        self.col_labels.get(rel).and_then(|v| v.get(col).copied().flatten())
    }

    /// The edge label for `rel.column` by column name.
    pub fn column_label_by_name(&self, rel: &str, col: &str) -> Option<LabelId> {
        let schema = self.schema(rel)?;
        let idx = schema.column_index(col).ok()?;
        self.column_label(rel, idx)
    }

    /// Schema of a relation.
    pub fn schema(&self, rel: &str) -> Option<&Schema> {
        self.schemas.iter().find(|s| s.name == rel)
    }

    /// All registered schemas.
    pub fn schemas(&self) -> &[Schema] {
        &self.schemas
    }

    /// Size statistics for the loading/size experiments.
    pub fn stats(&self) -> TagStats {
        let tuple_vertices: usize = (0..self.schemas.len() as u32)
            .map(|l| self.graph.vertices_with_label(LabelId(l)).len())
            .sum();
        let arena_bytes = self.values.iter().map(Value::deep_size).sum::<usize>()
            + self.value_start.len() * std::mem::size_of::<u32>();
        let index_bytes = self.attr_index.len() * (std::mem::size_of::<(Value, VertexId)>() + 16);
        TagStats {
            tuple_vertices,
            attr_vertices: self.graph.vertex_count() - tuple_vertices,
            edges: self.graph.edge_count(),
            bytes: self.graph.deep_size() + arena_bytes + index_bytes,
        }
    }

    /// Decode the TAG back into a relational database (exact inverse of the
    /// encoding — used as a round-trip correctness check).
    pub fn decode(&self) -> Database {
        let mut db = Database::new();
        for s in &self.schemas {
            let mut rel = Relation::empty(s.clone());
            if let Some(label) = self.relation_label(&s.name) {
                for &v in self.graph.vertices_with_label(label) {
                    let t = self.tuple(v).expect("tuple vertex has tuple payload");
                    rel.push(Tuple::new(t.to_vec())).expect("stored tuple matches schema");
                }
            }
            db.add(rel);
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcsql_relation::schema::Column;
    use vcsql_relation::{DataType, Date};

    /// The paper's Figure 1 mini-instance: NATION(nationkey, name),
    /// CUSTOMER(custkey, nationkey), ORDER(orderkey, custkey, date).
    fn figure1_db() -> Database {
        let nation = Relation::from_tuples(
            Schema::new(
                "NATION",
                vec![Column::new("nationkey", DataType::Int), Column::new("name", DataType::Str)],
            )
            .with_primary_key(&["nationkey"]),
            vec![
                Tuple::new(vec![Value::Int(1), Value::str("USA")]),
                Tuple::new(vec![Value::Int(2), Value::str("FRANCE")]),
            ],
        )
        .unwrap();
        let customer = Relation::from_tuples(
            Schema::new(
                "CUSTOMER",
                vec![
                    Column::new("custkey", DataType::Int),
                    Column::new("nationkey", DataType::Int),
                ],
            )
            .with_primary_key(&["custkey"]),
            vec![
                Tuple::new(vec![Value::Int(10), Value::Int(1)]),
                Tuple::new(vec![Value::Int(2), Value::Int(2)]),
            ],
        )
        .unwrap();
        let orders = Relation::from_tuples(
            Schema::new(
                "ORDER",
                vec![
                    Column::new("orderkey", DataType::Int),
                    Column::new("custkey", DataType::Int),
                    Column::new("odate", DataType::Date),
                ],
            )
            .with_primary_key(&["orderkey"]),
            vec![
                Tuple::new(vec![
                    Value::Int(100),
                    Value::Int(10),
                    Value::Date(Date::from_ymd(2020, 1, 1)),
                ]),
                Tuple::new(vec![
                    Value::Int(2),
                    Value::Int(2),
                    Value::Date(Date::from_ymd(2020, 1, 1)),
                ]),
            ],
        )
        .unwrap();
        let mut db = Database::new();
        db.add(nation);
        db.add(customer);
        db.add(orders);
        db
    }

    #[test]
    fn attribute_vertices_are_shared_across_relations_and_columns() {
        let db = figure1_db();
        let tag = TagGraph::build(&db);
        // Value 2 appears as: NATION.nationkey, CUSTOMER.custkey,
        // CUSTOMER.nationkey, ORDER.orderkey, ORDER.custkey — one vertex,
        // five (undirected) edges.
        let v2 = tag.attr_vertex(&Value::Int(2)).expect("vertex for value 2");
        assert_eq!(tag.graph().degree(v2), 5);
        let labels: Vec<&str> = tag
            .graph()
            .out_edges(v2)
            .iter()
            .map(|e| tag.graph().edge_label_name(e.label))
            .collect();
        assert!(labels.contains(&"NATION.nationkey"));
        assert!(labels.contains(&"CUSTOMER.custkey"));
        assert!(labels.contains(&"CUSTOMER.nationkey"));
        assert!(labels.contains(&"ORDER.orderkey"));
        assert!(labels.contains(&"ORDER.custkey"));
    }

    #[test]
    fn graph_is_bipartite() {
        let db = figure1_db();
        let tag = TagGraph::build(&db);
        for v in tag.graph().vertices() {
            let v_is_tuple = tag.is_tuple_vertex(v);
            for e in tag.graph().out_edges(v) {
                assert_ne!(
                    v_is_tuple,
                    tag.is_tuple_vertex(e.target),
                    "edge between same-kind vertices"
                );
            }
        }
    }

    #[test]
    fn shared_date_connects_two_orders() {
        let db = figure1_db();
        let tag = TagGraph::build(&db);
        let d = Value::Date(Date::from_ymd(2020, 1, 1));
        let dv = tag.attr_vertex(&d).expect("date vertex");
        assert_eq!(tag.graph().degree(dv), 2);
    }

    #[test]
    fn size_is_linear_and_counts_match() {
        let db = figure1_db();
        let tag = TagGraph::build(&db);
        let stats = tag.stats();
        assert_eq!(stats.tuple_vertices, 6);
        // Distinct values: 1, 2, 10, 100, "USA", "FRANCE", the date = 7.
        assert_eq!(stats.attr_vertices, 7);
        // Undirected edges = total non-null fields = 2*2 + 2*2 + 2*3 = 14;
        // directed = 28.
        assert_eq!(stats.edges, 28);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn roundtrip_decode() {
        let db = figure1_db();
        let tag = TagGraph::build(&db);
        let back = tag.decode();
        for rel in db.relations() {
            assert!(back.get(rel.name()).unwrap().same_bag(rel), "{} differs", rel.name());
        }
    }

    #[test]
    fn policy_skips_floats_nulls_and_long_strings() {
        let schema = Schema::new(
            "R",
            vec![
                Column::new("k", DataType::Int),
                Column::new("price", DataType::Float), // unmaterialized by default
                Column::new("comment", DataType::Str),
            ],
        );
        let long = "x".repeat(100);
        let rel = Relation::from_tuples(
            schema,
            vec![
                Tuple::new(vec![Value::Int(1), Value::Float(9.99), Value::str(&long)]),
                Tuple::new(vec![Value::Int(2), Value::Null, Value::str("short")]),
            ],
        )
        .unwrap();
        let mut db = Database::new();
        db.add(rel);
        let tag = TagGraph::build(&db);
        assert!(tag.attr_vertex(&Value::Float(9.99)).is_none(), "float materialized");
        assert!(tag.attr_vertex(&Value::str(&long)).is_none(), "long string materialized");
        assert!(tag.attr_vertex(&Value::str("short")).is_some());
        assert!(tag.attr_vertex(&Value::Null).is_none());
        // Tuple payloads still carry the full values.
        let rl = tag.relation_label("R").unwrap();
        let tv = tag.graph().vertices_with_label(rl)[0];
        assert_eq!(tag.tuple(tv).unwrap()[1], Value::Float(9.99));
    }

    #[test]
    fn incremental_insert_equals_bulk_build() {
        let db = figure1_db();
        let bulk = TagGraph::build(&db);

        let mut b = TagBuilder::new(MaterializePolicy::default());
        for rel in db.relations() {
            b.add_schema(rel.schema.clone());
        }
        for rel in db.relations() {
            for t in &rel.tuples {
                b.insert_tuple(rel.name(), t.clone()).unwrap();
            }
        }
        let inc = b.build();
        let (s1, s2) = (bulk.stats(), inc.stats());
        assert_eq!(s1, s2);
        for rel in db.relations() {
            assert!(inc.decode().get(rel.name()).unwrap().same_bag(rel));
        }
    }

    #[test]
    fn delete_removes_tuple_and_its_edges() {
        let db = figure1_db();
        let mut b = TagBuilder::new(MaterializePolicy::default());
        for rel in db.relations() {
            b.add_schema(rel.schema.clone());
        }
        let mut order_vertices = Vec::new();
        for rel in db.relations() {
            for t in &rel.tuples {
                let v = b.insert_tuple(rel.name(), t.clone()).unwrap();
                if rel.name() == "ORDER" {
                    order_vertices.push(v);
                }
            }
        }
        b.delete_tuple(order_vertices[0]).unwrap();
        // Double delete is an error.
        assert!(b.delete_tuple(order_vertices[0]).is_err());
        let tag = b.build();
        let decoded = tag.decode();
        assert_eq!(decoded.get("ORDER").unwrap().len(), 1);
        assert_eq!(decoded.get("NATION").unwrap().len(), 2);
        // Value 100 only occurred in the deleted tuple: vertex dropped.
        assert!(tag.attr_vertex(&Value::Int(100)).is_none());
        // Value 10 still serves CUSTOMER_10.
        assert!(tag.attr_vertex(&Value::Int(10)).is_some());
    }

    /// Deleting is a tombstone per tuple: emptying a relation whose column
    /// has one distinct value (a hub of `n` edges) rewrites no link, where
    /// scanning the hub's adjacency per delete would visit n²/2 of them.
    #[test]
    fn deleting_a_hub_relation_touches_each_link_once() {
        let n = 1_000;
        let mut b = TagBuilder::new(MaterializePolicy::default());
        b.add_schema(Schema::new(
            "R",
            vec![Column::new("k", DataType::Int), Column::new("g", DataType::Int)],
        ));
        let tuples: Vec<VertexId> = (0..n)
            .map(|k| b.insert_tuple("R", Tuple::new(vec![Value::Int(k), Value::Int(-1)])).unwrap())
            .collect();
        assert_eq!(b.links.len(), 2 * n as usize);
        for &tv in &tuples {
            b.delete_tuple(tv).unwrap();
        }
        // The deletes' whole footprint: n tombstones, the link list as it was.
        assert_eq!(b.deleted.iter().filter(|&&d| d).count(), n as usize);
        assert_eq!(b.links.len(), 2 * n as usize);
        let tag = b.build();
        assert_eq!(tag.graph().vertex_count(), 0);
        assert_eq!(tag.graph().edge_count(), 0);
        assert!(tag.attr_vertex(&Value::Int(-1)).is_none(), "the hub went with its last edge");
        assert!(tag.relation_label("R").is_some());
    }

    #[test]
    fn insert_rejects_unknown_relation_and_bad_arity() {
        let mut b = TagBuilder::new(MaterializePolicy::default());
        b.add_schema(Schema::new("R", vec![Column::new("a", DataType::Int)]));
        assert!(b.insert_tuple("S", Tuple::new(vec![Value::Int(1)])).is_err());
        assert!(b.insert_tuple("R", Tuple::new(vec![Value::Int(1), Value::Int(2)])).is_err());
    }
}
