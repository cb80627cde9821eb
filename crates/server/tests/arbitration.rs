//! The SF 0.01 acceptance run for the multi-tenant server: eight tenants
//! with mixed TPC-H / TPC-DS mixes over one shared TAG.
//!
//! Locked in here:
//!
//! * **Arbitrated beats unilateral and static.** The merged-vote policy
//!   ships fewer total bytes (query traffic + migrated vertex state) than
//!   (a) per-tenant unilateral migration, where drifted tenants overwrite
//!   each other's targets and vertices ping-pong, and (b) a static refined
//!   placement that never adapts to the workload at all.
//! * **Per-tenant fairness.** No tenant's spark/tag byte ratio degrades
//!   below its solo-refined baseline by more than 10%. The spark-side
//!   bytes of a fixed mix are a constant, so the ratio condition
//!   `ratio_shared >= 0.9 * ratio_solo` is asserted in its equivalent
//!   tag-side form `shared_bytes <= solo_bytes / 0.9`.
//!
//! Both suites fit one TAG because the table names are disjoint; tenants
//! of even id run TPC-H joins, odd ids run TPC-DS joins, so the consensus
//! really is contested.

use std::sync::Arc;
use vcsql_bsp::EngineConfig;
use vcsql_relation::Database;
use vcsql_server::{Arbitration, QueryServer, ServerConfig, TenantSession};
use vcsql_tag::TagGraph;
use vcsql_workload::{tpcds, tpch};

const TENANTS: usize = 8;
const ROUNDS: usize = 6;

/// TPC-H joins for even tenants, on the labels shape-based refinement
/// sacrifices: the q17-style part–lineitem clash plus the customer–orders–
/// lineitem chain. Refined placement serves these poorly (it co-locates by
/// graph shape, and `lineitem` cannot sit with everyone), so workload
/// placement has something real to win.
const TPCH_MIX: [&str; 2] = [
    "SELECT p.p_name FROM part p, lineitem l WHERE p.p_partkey = l.l_partkey",
    "SELECT o.o_orderkey FROM customer c, orders o, lineitem l \
     WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey",
];

/// TPC-DS joins for odd tenants: all traffic lives on the store-sales side
/// of the graph (`store_sales` torn between `item` and `date_dim`),
/// contesting the TPC-H tenants' preferences for the consensus.
const TPCDS_MIX: [&str; 2] = [
    "SELECT i.i_itemkey FROM item i, store_sales ss WHERE i.i_itemkey = ss.ss_itemkey",
    "SELECT d.d_year FROM store_sales ss, date_dim d WHERE ss.ss_datekey = d.d_datekey",
];

fn tenant_mix(tenant: usize) -> &'static [&'static str] {
    if tenant.is_multiple_of(2) {
        &TPCH_MIX
    } else {
        &TPCDS_MIX
    }
}

/// One database hosting both suites at SF 0.01 (disjoint table names).
fn mixed_tag() -> Arc<TagGraph> {
    let mut db = tpch::generate(0.01, 42);
    for relation in tpcds::generate(0.01, 7).relations() {
        db.add(relation.clone());
    }
    let db: Database = db;
    Arc::new(TagGraph::build(&db))
}

fn server_config(arbitration: Arbitration) -> ServerConfig {
    ServerConfig {
        machines: 4,
        engine: EngineConfig::sequential(),
        arbitration,
        ..ServerConfig::default()
    }
}

/// Static refined placement: drift lies in `[0, 1]`, so a threshold of 2
/// never adapts.
fn static_config() -> ServerConfig {
    ServerConfig { drift_threshold: 2.0, ..server_config(Arbitration::Merged) }
}

/// Serve every tenant's mix for [`ROUNDS`] rounds; return
/// (total bytes shipped — `network_bytes` already includes the itemized
/// migration bytes — and per-tenant *query* bytes with the one-time
/// migration charge separated back out, since fairness is about steady
/// execution efficiency, not about which tenant's query happened to
/// trigger the walk).
fn serve(tag: &Arc<TagGraph>, config: ServerConfig) -> (u64, Vec<u64>) {
    let server = QueryServer::start(tag, config).unwrap();
    let sessions: Vec<TenantSession> = (0..TENANTS).map(|_| server.open_session()).collect();
    for _ in 0..ROUNDS {
        for session in &sessions {
            for sql in tenant_mix(session.id()) {
                session.run_sql(sql).unwrap();
            }
        }
    }
    let per_tenant = sessions
        .iter()
        .map(|s| {
            let net = s.stats().net;
            net.network_bytes - net.migration_bytes
        })
        .collect();
    (server.stats().net.network_bytes, per_tenant)
}

/// A tenant's solo-refined baseline: the same mix, same rounds, alone on a
/// static refined placement.
fn solo_refined_bytes(tag: &Arc<TagGraph>, mix: &[&str]) -> u64 {
    let server = QueryServer::start(tag, static_config()).unwrap();
    let session = server.open_session();
    for _ in 0..ROUNDS {
        for sql in mix {
            session.run_sql(sql).unwrap();
        }
    }
    session.stats().net.network_bytes
}

#[test]
fn arbitrated_placement_beats_both_baselines_and_stays_fair() {
    let tag = mixed_tag();

    let (merged_total, merged_per_tenant) = serve(&tag, server_config(Arbitration::Merged));
    let (unilateral_total, _) = serve(&tag, server_config(Arbitration::Unilateral));
    let (static_total, _) = serve(&tag, static_config());

    assert!(
        merged_total < unilateral_total,
        "arbitrated serving must ship fewer total bytes than unilateral migration \
         (merged {merged_total} vs unilateral {unilateral_total})"
    );
    assert!(
        merged_total < static_total,
        "arbitrated serving must ship fewer total bytes than static refined placement \
         (merged {merged_total} vs static {static_total})"
    );

    // Fairness: the shared, arbitrated placement may not sacrifice any
    // single tenant. Tenants of one parity share a mix, so two solo
    // baselines cover all eight.
    let solo = [solo_refined_bytes(&tag, &TPCH_MIX), solo_refined_bytes(&tag, &TPCDS_MIX)];
    for (tenant, &shared_bytes) in merged_per_tenant.iter().enumerate() {
        let solo_bytes = solo[tenant % 2];
        assert!(
            shared_bytes as f64 <= solo_bytes as f64 / 0.9,
            "tenant {tenant}: spark/tag ratio degraded more than 10% below its solo-refined \
             baseline (shared {shared_bytes} bytes vs solo {solo_bytes})"
        );
    }
}
