//! The five named workloads, their sizing, and the generated inputs.
//!
//! The program under test only ever sees what is generated here from
//! `--seed`: the databases come out of `vcsql::workload`'s seeded
//! generators, and the statements are the fixed TPC-H / TPC-DS suites in
//! list order (a *pass* is every statement of a list once).

use crate::trace::Tracer;
use std::sync::Arc;
use vcsql::bsp::EngineConfig;
use vcsql::relation::Database;
use vcsql::tag::TagGraph;
use vcsql::workload::{tpcds, tpch};

/// Simulated machines of every cluster arm (`cluster_drift`, `serve_mixed`,
/// and the static-placement pass of the traced runs).
pub const MACHINES: usize = 4;

/// Latency samples every timed window takes at least: enough for a 95th
/// percentile with ten samples beyond it.
pub const SAMPLE_FLOOR: usize = 200;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TpchSeq,
    TpchPar,
    TpcdsSeq,
    ClusterDrift,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::TpchSeq,
        Workload::TpchPar,
        Workload::TpcdsSeq,
        Workload::ClusterDrift,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpchSeq => "tpch_seq",
            Workload::TpchPar => "tpch_par",
            Workload::TpcdsSeq => "tpcds_seq",
            Workload::ClusterDrift => "cluster_drift",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Which generated database the workload runs over.
    pub fn data(self) -> Data {
        match self {
            Workload::TpchSeq | Workload::TpchPar => Data::Tpch,
            Workload::TpcdsSeq => Data::Tpcds,
            Workload::ClusterDrift | Workload::ServeMixed => Data::Combined,
        }
    }

    /// Scale factor of the full-size run (`sf = 1` is about 60 K lineitems).
    pub fn scale_factor(self) -> f64 {
        match self.data() {
            Data::Tpch => 1.0,
            Data::Tpcds => 2.0,
            Data::Combined => 0.5,
        }
    }

    /// Engine threads of the workload's own executions, pinned: never
    /// `EngineConfig::default()`, which follows the host.
    pub fn engine_threads(self) -> usize {
        match self {
            Workload::TpchPar => 2,
            _ => 1,
        }
    }

    pub fn engine(self) -> EngineConfig {
        match self.engine_threads() {
            1 => EngineConfig::sequential(),
            n => EngineConfig::with_threads(n),
        }
    }

    /// OS threads that generate load (closed loop: each waits for its reply).
    pub fn clients(self) -> usize {
        match self {
            Workload::ServeMixed => 2,
            _ => 1,
        }
    }

    /// Workloads that need two cores to mean anything.
    pub fn needs_two_cores(self) -> bool {
        self.engine_threads() > 1 || self.clients() > 1
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    Tpch,
    Tpcds,
    /// TPC-H and TPC-DS in one database (their relation names are disjoint),
    /// so one TAG serves both statement lists.
    Combined,
}

/// One statement of a workload's schedule.
#[derive(Debug, Clone, Copy)]
pub struct Stmt {
    pub id: &'static str,
    pub sql: &'static str,
}

fn tpch_list() -> Vec<Stmt> {
    tpch::queries().into_iter().map(|q| Stmt { id: q.id, sql: q.sql }).collect()
}

fn tpcds_list() -> Vec<Stmt> {
    tpcds::queries().into_iter().map(|q| Stmt { id: q.id, sql: q.sql }).collect()
}

/// Ids of every statement of both suites, TPC-H first: the 35 names behind
/// `core.stmt_ms.<id>`.
pub fn all_stmt_ids() -> Vec<&'static str> {
    tpch_list().into_iter().chain(tpcds_list()).map(|s| s.id).collect()
}

/// Sizing of one run. Full-size numbers come from the workload and
/// `--seconds`; `--smoke` shrinks everything so the whole suite takes
/// seconds and only checks that the plumbing holds.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

impl Sizing {
    pub fn scale_factor(&self, workload: Workload) -> f64 {
        if self.smoke {
            0.02
        } else {
            workload.scale_factor()
        }
    }

    /// Cold set-ups measured per run; `setup_s` is their median.
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Row-hash reference passes behind `tag_over_row`.
    pub fn row_passes(&self) -> usize {
        if self.smoke {
            2
        } else {
            8
        }
    }

    /// Samples below which a timed window keeps going.
    pub fn sample_floor(&self) -> usize {
        if self.smoke {
            0
        } else {
            SAMPLE_FLOOR
        }
    }

    /// `cluster_drift` cycles: a fixed count derived from `--seconds` (a
    /// cycle takes about 2 s at full size), not a clock, so that every byte
    /// count repeats exactly for a given seed.
    pub fn drift_cycles(&self) -> usize {
        if self.smoke {
            1
        } else {
            ((self.seconds / 2.0).round() as usize).max(2)
        }
    }

    /// Passes of one suite per half-cycle of `cluster_drift`.
    pub fn drift_passes(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }
}

/// The generated inputs of one set-up.
pub struct Dataset {
    pub db: Database,
    pub tag: Arc<TagGraph>,
    /// One list for the single-suite workloads; TPC-H then TPC-DS for the
    /// combined database.
    pub lists: Vec<Vec<Stmt>>,
}

impl Dataset {
    /// Generate the database and encode it as a TAG, each under its span.
    pub fn build(data: Data, sf: f64, seed: u64, tracer: &mut Tracer) -> Dataset {
        let (db, _) = tracer.span("workload.generate", None, |_| match data {
            Data::Tpch => tpch::generate(sf, seed),
            Data::Tpcds => tpcds::generate(sf, seed),
            Data::Combined => {
                let mut db = tpch::generate(sf, seed);
                for rel in tpcds::generate(sf, seed).relations() {
                    db.add(rel.clone());
                }
                db
            }
        });
        let (tag, _) = tracer.span("tag.build", None, |_| Arc::new(TagGraph::build(&db)));
        let lists = match data {
            Data::Tpch => vec![tpch_list()],
            Data::Tpcds => vec![tpcds_list()],
            Data::Combined => vec![tpch_list(), tpcds_list()],
        };
        Dataset { db, tag, lists }
    }

    /// Every statement of every list, in list order.
    pub fn all_stmts(&self) -> Vec<Stmt> {
        self.lists.iter().flatten().copied().collect()
    }
}
