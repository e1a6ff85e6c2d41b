//! The protocol-comparison harness behind `td compare`.
//!
//! Runs every registered balancer ([`td_balance::registry`]) over the same
//! instances — the generator families of the [`crate::spec`] registry
//! and/or recorded [`crate::trace`] corpus files — checks each protocol's
//! own verifier, and reports convergence rounds, total
//! messages, tokens moved, and final discrepancy per (instance, protocol)
//! pair. Reports render as an aligned table, as golden-snapshot lines, or
//! as schema-versioned [`SCHEMA`] JSON.
//!
//! Every family maps to a balancing instance by projecting its
//! communication graph — orientation and churn families directly, game
//! families through the game graph, assignment families through the
//! customer/server bipartite graph — and seeding a skewed token vector on
//! it ([`BalanceInstance::seeded`]). Churn-orient families and traces also
//! replay their event scripts (edge inserts/deletes as live topology
//! changes, flips as liveness pokes, token events as load perturbations).
//! Assignment-churn scripts (`join`/`leave`/`cap`) have no meaning for
//! node loads and are reported as unsupported.

use crate::spec::{WorkloadInstance, WorkloadSpec, FAMILIES};
use crate::trace::Trace;
use td_balance::{registry, BalanceInstance, BalanceRun, BalancingProtocol};
use td_graph::{CsrGraph, GraphBuilder, NodeId};
use td_local::churn::ChurnEvent;

/// Schema tag of the JSON document [`write_json`] emits.
pub const SCHEMA: &str = "td-compare/v1";

/// Configuration of one comparison sweep.
#[derive(Clone, Debug)]
pub struct CompareConfig {
    /// Size override for every family (`None` = each family's default).
    pub size: Option<u32>,
    /// Instance seed (graph generation and token placement).
    pub seed: u64,
    /// Protocol names to run (must resolve via [`td_balance::find`]).
    pub protocols: Vec<String>,
    /// Cap on replayed churn events per instance (`None` = all).
    pub max_events: Option<usize>,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            size: None,
            seed: 42,
            protocols: registry().iter().map(|p| p.name().to_string()).collect(),
            max_events: None,
        }
    }
}

impl CompareConfig {
    /// Resolves the configured protocol names against the registry.
    pub fn resolve_protocols(&self) -> Result<Vec<&'static dyn BalancingProtocol>, String> {
        let known = || {
            registry()
                .iter()
                .map(|p| p.name())
                .collect::<Vec<_>>()
                .join(", ")
        };
        self.protocols
            .iter()
            .map(|name| {
                td_balance::find(name)
                    .ok_or_else(|| format!("unknown protocol '{name}' (known: {})", known()))
            })
            .collect()
    }
}

/// One (instance, protocol) measurement of the comparison sweep.
#[derive(Clone, Debug)]
pub struct CompareRow {
    /// Instance label: a family name or a trace label.
    pub instance: String,
    /// Protocol name.
    pub protocol: &'static str,
    /// Nodes of the balancing graph.
    pub nodes: usize,
    /// Edges of the balancing graph (initial).
    pub edges: usize,
    /// Churn events replayed after the initial stabilization.
    pub events: u32,
    /// The measured run.
    pub run: BalanceRun,
}

impl CompareRow {
    /// The cache-stable canonical serialization of this row: its
    /// protocol-prefixed deterministic outcomes as flat integer metrics.
    /// What the experiment cache stores.
    pub fn canonical_metrics(&self) -> Vec<(String, u64)> {
        let p = self.protocol;
        vec![
            (format!("{p}/rounds"), self.run.rounds),
            (format!("{p}/messages"), self.run.messages),
            (format!("{p}/moves"), self.run.moves),
            (format!("{p}/discrepancy"), self.run.discrepancy as u64),
            (format!("{p}/max_gap"), self.run.max_gap as u64),
            (format!("{p}/fingerprint"), self.run.fingerprint),
        ]
    }
}

/// The full result of a comparison sweep.
#[derive(Clone, Debug)]
pub struct CompareReport {
    /// The sweep configuration.
    pub config: CompareConfig,
    /// One row per (instance, protocol), instance-major in sweep order.
    pub rows: Vec<CompareRow>,
    /// Instances the sweep had to skip, with reasons (e.g. assignment
    /// churn scripts, which no balancer can replay).
    pub skipped: Vec<(String, String)>,
}

/// Projects a built workload onto the common balancing problem: the
/// communication graph plus the churn events a balancer can replay.
pub fn balance_workload(spec: &WorkloadSpec) -> Result<(CsrGraph, Vec<ChurnEvent>), String> {
    Ok(match spec.build()? {
        WorkloadInstance::Orientation(g) => (g, Vec::new()),
        WorkloadInstance::Game(game) => (game.graph().clone(), Vec::new()),
        WorkloadInstance::Assignment { inst, .. } => (bipartite_graph(&inst)?, Vec::new()),
        WorkloadInstance::OrientChurn { graph, trace } => (graph, trace),
        WorkloadInstance::AssignChurn { base, .. } => {
            // The base instance balances fine; the join/leave/cap script
            // does not apply to node loads and is dropped by projection.
            (bipartite_graph(&base)?, Vec::new())
        }
    })
}

/// The customer/server bipartite graph of an assignment instance:
/// customers are nodes `0..C`, servers `C..C+S`, one edge per distinct
/// (customer, server) adjacency.
fn bipartite_graph(inst: &td_assign::AssignmentInstance) -> Result<CsrGraph, String> {
    let c = inst.num_customers();
    let s = inst.num_servers();
    let mut b = GraphBuilder::new(c + s);
    for cust in 0..c {
        let mut last = None;
        for &srv in inst.servers_of(cust) {
            // servers_of is sorted; skip duplicate adjacencies.
            if last == Some(srv) {
                continue;
            }
            last = Some(srv);
            b.add_edge(NodeId::from(cust), NodeId::from(c + srv as usize))
                .map_err(|e| format!("bipartite projection: {e:?}"))?;
        }
    }
    b.build()
        .map_err(|e| format!("bipartite projection: {e:?}"))
}

/// Runs every configured protocol on one instance. Returns one row per
/// protocol.
fn run_instance(
    label: &str,
    graph: CsrGraph,
    events: &[ChurnEvent],
    cfg: &CompareConfig,
) -> Result<Vec<CompareRow>, String> {
    let inst = BalanceInstance::seeded(graph, cfg.seed);
    let nodes = inst.graph.num_nodes();
    let edges = inst.graph.num_edges();
    let mut rows = Vec::new();
    for proto in cfg.resolve_protocols()? {
        let run = proto
            .run(&inst, cfg.seed, events)
            .map_err(|e| format!("{label}: {e}"))?;
        rows.push(CompareRow {
            instance: label.to_string(),
            protocol: proto.name(),
            nodes,
            edges,
            events: run.events_applied,
            run,
        });
    }
    Ok(rows)
}

/// Sweeps the named generator families (every registry family if `families`
/// is empty).
pub fn compare_families(cfg: &CompareConfig, families: &[String]) -> Result<CompareReport, String> {
    let names: Vec<String> = if families.is_empty() {
        FAMILIES.iter().map(|f| f.name.to_string()).collect()
    } else {
        families.to_vec()
    };
    let mut report = CompareReport {
        config: cfg.clone(),
        rows: Vec::new(),
        skipped: Vec::new(),
    };
    for name in &names {
        let mut spec = WorkloadSpec::new(name)?.with_seed(cfg.seed);
        if let Some(size) = cfg.size {
            spec = spec.with_size(size);
        }
        spec.validate()?;
        let (graph, mut events) = balance_workload(&spec)?;
        if let Some(cap) = cfg.max_events {
            events.truncate(cap);
        }
        report.rows.extend(run_instance(name, graph, &events, cfg)?);
    }
    Ok(report)
}

/// Adds a recorded trace file (already read into `trace`) to a sweep:
/// the trace's spec supplies the initial graph, the recorded events
/// replay on it. Inapplicable scripts land in `skipped`.
pub fn compare_trace(report: &mut CompareReport, label: &str, trace: &Trace) -> Result<(), String> {
    let cfg = report.config.clone();
    let (graph, _) = balance_workload(&trace.spec)?;
    let mut events: Vec<ChurnEvent> = trace.events.clone();
    if let Some(cap) = cfg.max_events {
        events.truncate(cap);
    }
    if events.iter().any(|e| {
        matches!(
            e,
            ChurnEvent::CustomerJoin { .. }
                | ChurnEvent::CustomerLeave(_)
                | ChurnEvent::ServerCapacity { .. }
        )
    }) {
        report.skipped.push((
            label.to_string(),
            "assignment churn script (join/leave/cap) — not a node-load workload".to_string(),
        ));
        return Ok(());
    }
    report
        .rows
        .extend(run_instance(label, graph, &events, &cfg)?);
    Ok(())
}

impl CompareReport {
    /// Renders the sweep as an aligned table.
    pub fn table(&self) -> crate::Table {
        let mut t = crate::Table::new(&[
            "instance",
            "protocol",
            "n",
            "m",
            "events",
            "rounds",
            "messages",
            "moves",
            "disc0",
            "disc",
            "gap",
            "fingerprint",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.instance.clone(),
                r.protocol.to_string(),
                r.nodes.to_string(),
                r.edges.to_string(),
                r.events.to_string(),
                r.run.rounds.to_string(),
                r.run.messages.to_string(),
                r.run.moves.to_string(),
                r.run.initial_discrepancy.to_string(),
                r.run.discrepancy.to_string(),
                r.run.max_gap.to_string(),
                format!("{:016x}", r.run.fingerprint),
            ]);
        }
        t
    }

    /// Renders the sweep as golden-snapshot lines (stable, line-diffable).
    pub fn golden(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            out.push_str(&format!(
                "{}/{}: n={} m={} events={} rounds={} messages={} moves={} \
                 disc0={} disc={} gap={} fp={:016x}\n",
                r.instance,
                r.protocol,
                r.nodes,
                r.edges,
                r.events,
                r.run.rounds,
                r.run.messages,
                r.run.moves,
                r.run.initial_discrepancy,
                r.run.discrepancy,
                r.run.max_gap,
                r.run.fingerprint
            ));
        }
        for (label, why) in &self.skipped {
            out.push_str(&format!("{label}: skipped ({why})\n"));
        }
        out
    }
}

/// Serializes a report as the versioned [`SCHEMA`] JSON document. The
/// writer is hand-rolled (the workspace is hermetic: no serde) and emits
/// only integers and strings of known-safe characters.
pub fn write_json(r: &CompareReport) -> String {
    let mut s = String::new();
    s.push_str(&format!("{{\n\"schema\":\"{SCHEMA}\",\n"));
    // The seed, the size override and the event cap: everything a cache
    // needs to key a report faithfully.
    s.push_str(&format!("\"seed\":{},", r.config.seed));
    match r.config.size {
        Some(size) => s.push_str(&format!("\"size\":{size},")),
        None => s.push_str("\"size\":null,"),
    }
    match r.config.max_events {
        Some(cap) => s.push_str(&format!("\"max_events\":{cap},\n")),
        None => s.push_str("\"max_events\":null,\n"),
    }
    s.push_str("\"rows\":[\n");
    for (i, row) in r.rows.iter().enumerate() {
        s.push_str(&format!(
            "{{\"instance\":\"{}\",\"protocol\":\"{}\",\"nodes\":{},\"edges\":{},\
             \"events\":{},\"rounds\":{},\"messages\":{},\"moves\":{},\
             \"initial_discrepancy\":{},\"discrepancy\":{},\"max_gap\":{},\
             \"fingerprint\":\"{:016x}\"}}{}\n",
            row.instance,
            row.protocol,
            row.nodes,
            row.edges,
            row.events,
            row.run.rounds,
            row.run.messages,
            row.run.moves,
            row.run.initial_discrepancy,
            row.run.discrepancy,
            row.run.max_gap,
            row.run.fingerprint,
            if i + 1 < r.rows.len() { "," } else { "" }
        ));
    }
    s.push_str("],\n\"skipped\":[");
    for (i, (label, why)) in r.skipped.iter().enumerate() {
        s.push_str(&format!(
            "{{\"instance\":\"{label}\",\"reason\":\"{why}\"}}{}",
            if i + 1 < r.skipped.len() { "," } else { "" }
        ));
    }
    s.push_str("]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> CompareConfig {
        CompareConfig {
            size: Some(12),
            seed: 7,
            ..CompareConfig::default()
        }
    }

    #[test]
    fn every_family_projects_to_a_balance_workload() {
        for f in FAMILIES {
            let spec = WorkloadSpec::new(f.name).unwrap();
            let (g, _) = balance_workload(&spec)
                .unwrap_or_else(|e| panic!("{}: projection failed: {e}", f.name));
            assert!(g.num_nodes() > 0, "{}: empty projection", f.name);
        }
    }

    #[test]
    fn sweep_covers_families_times_protocols() {
        let cfg = tiny_cfg();
        let fams: Vec<String> = ["grid", "layered", "uniform-assign"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let report = compare_families(&cfg, &fams).unwrap();
        assert_eq!(report.rows.len(), 3 * 3);
        for r in &report.rows {
            assert!(
                r.run.max_gap <= 1,
                "{}/{} unbalanced",
                r.instance,
                r.protocol
            );
        }
        let json = write_json(&report);
        assert!(json.contains("\"schema\":\"td-compare/v1\""));
        assert!(json.contains("\"fingerprint\":\""));
        let table = report.table().render();
        assert!(table.contains("token-drop") && table.contains("rotor-router"));
    }

    #[test]
    fn churn_family_replays_events() {
        let cfg = CompareConfig {
            size: Some(16),
            seed: 3,
            max_events: Some(6),
            ..CompareConfig::default()
        };
        let fams = vec!["churn-orient".to_string()];
        let report = compare_families(&cfg, &fams).unwrap();
        assert!(report.rows.iter().all(|r| r.events > 0));
    }

    #[test]
    fn json_report_round_trips_with_header_fields() {
        // The header records the seed, size override and event cap; pin
        // by parsing the document back with the in-tree JSON reader.
        let cfg = CompareConfig {
            max_events: Some(6),
            ..tiny_cfg()
        };
        let report = compare_families(&cfg, &["grid".to_string()]).unwrap();
        let doc = write_json(&report);
        let parsed = crate::json::parse(&doc).unwrap();
        assert_eq!(parsed.get("schema").and_then(|v| v.as_str()), Some(SCHEMA));
        assert_eq!(parsed.get("size").and_then(|v| v.as_u64()), Some(12));
        assert_eq!(parsed.get("max_events").and_then(|v| v.as_u64()), Some(6));
        assert_eq!(parsed.get("seed").and_then(|v| v.as_u64()), Some(7));
        let rows = parsed.get("rows").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(rows.len(), report.rows.len());
        for (j, row) in rows.iter().zip(&report.rows) {
            assert_eq!(
                j.get("protocol").and_then(|v| v.as_str()),
                Some(row.protocol)
            );
            assert_eq!(
                j.get("rounds").and_then(|v| v.as_u64()),
                Some(row.run.rounds)
            );
            assert_eq!(
                j.get("messages").and_then(|v| v.as_u64()),
                Some(row.run.messages)
            );
        }
        // And the canonical metrics agree with the serialized row.
        let m = report.rows[0].canonical_metrics();
        let key = format!("{}/rounds", report.rows[0].protocol);
        assert!(m.contains(&(key, report.rows[0].run.rounds)));
    }

    #[test]
    fn unknown_protocol_is_a_clean_error() {
        let cfg = CompareConfig {
            protocols: vec!["no-such".into()],
            ..tiny_cfg()
        };
        let err = compare_families(&cfg, &["grid".to_string()]).unwrap_err();
        assert!(err.contains("unknown protocol"), "{err}");
    }
}
