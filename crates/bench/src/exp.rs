//! The **cached experiment framework** behind `td exp`.
//!
//! Every reproduction experiment so far is a one-shot: the `repro` binary
//! prints tables, `td perf` overwrites its benchmark file, and rerunning
//! anything repays the full cost. This module adopts the
//! skip-existing-results pattern (mergeable-etcd's experiment runner, see
//! SNIPPETS.md): a registry of experiment definitions — the E15, E17 and E18
//! reproductions, the E21 protocol race, and the full perf trajectory —
//! where each *configuration* hashes its identity (experiment id, workload
//! spec string, executor grid point, seed, repeat count, schema version)
//! into a cache key, and its result lands in `results/<exp>/<key>.json`.
//! Rerunning skips every configuration whose file already exists;
//! `--force` re-executes; a manifest records the hit/miss split of every
//! run.
//!
//! The **render** stage is a pure function of the cache: it regenerates
//! deterministic SVG plots ([`crate::plot`]) under `plots/`, markdown
//! tables spliced between `<!-- exp:<id>:begin/end -->` markers in
//! EXPERIMENTS.md, and the committed `BENCH_*.json` trajectory — cached
//! `td-perf/v1` point fragments are spliced back verbatim, so the
//! benchmark file becomes a derived artifact instead of a hand-run one.
//! `scripts/kick-tires.sh` (small sizes, subset, what CI runs) and
//! `scripts/full.sh` (the whole sweep) are thin wrappers over
//! `td exp run` + `td exp render`.

use crate::churn::churn_registry;
use crate::compare::CompareConfig;
use crate::perf::{self, SweepConfig};
use crate::plot::{self, Chart, Series};
use crate::spec::{WorkloadInstance, WorkloadSpec};
use crate::{json, ScenarioKind, ServeConfig};
use std::path::{Path, PathBuf};
use td_core::proposal;
use td_local::churn::RepairMode;
use td_local::Simulator;

/// Schema tag of every cached result document and the run manifest.
pub const SCHEMA: &str = "td-exp/v1";

/// Cache schema version: part of every cache key, so bumping it misses the
/// entire existing cache (the "schema version bump" invalidation path).
pub const VERSION: u32 = 1;

// ---------------------------------------------------------------- config ---

/// Knobs shared by every experiment (what `td exp run/render` flags map
/// onto). The same configuration must be passed to `run` and `render`:
/// render recomputes the cache keys from it.
#[derive(Clone, Debug)]
pub struct ExpConfig {
    /// Base seed (also part of every cache key).
    pub seed: u64,
    /// Timing repetitions for wall-clocked units (min-of-N, like
    /// [`SweepConfig::repeat`]).
    pub repeat: usize,
    /// Kick-tires mode: smallest sizes, shortest traces.
    pub quick: bool,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            seed: 42,
            repeat: 3,
            quick: false,
        }
    }
}

impl ExpConfig {
    /// The kick-tires configuration: small sizes, single repetition. What
    /// `scripts/kick-tires.sh` and CI run.
    pub fn quick() -> Self {
        ExpConfig {
            repeat: 1,
            quick: true,
            ..ExpConfig::default()
        }
    }
}

// ------------------------------------------------------- units & results ---

/// What one configuration measured: flat integer metrics (the cache-stable
/// canonical serialization every report plane now exposes), optional named
/// curves for the plots, and — for the perf experiment — the raw
/// `td-perf/v1` point fragments, kept verbatim so the benchmark file can be
/// regenerated byte-identically from the cache.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UnitData {
    /// Named integer metrics, in a fixed order.
    pub metrics: Vec<(String, u64)>,
    /// Named (x, y) curves.
    pub curves: Vec<(String, Vec<(u64, u64)>)>,
    /// Raw JSON array of `td-perf/v1` points (perf experiment only).
    pub points: Option<String>,
}

/// Looks a metric up by name.
pub fn metric(data: &UnitData, name: &str) -> Option<u64> {
    data.metrics
        .iter()
        .find(|(k, _)| k == name)
        .map(|&(_, v)| v)
}

/// One runnable configuration of an experiment: the cache-key fields plus
/// the closure that produces its data.
pub struct ExpUnit {
    /// Display label (`<scenario>/<size>`-style), unique within the
    /// experiment. Not part of the cache key.
    pub label: String,
    /// Canonical workload spec string ([`WorkloadSpec`] form where the
    /// family has one, a synthetic descriptor otherwise).
    pub spec: String,
    /// Resolved executor grid point(s), as a canonical label.
    pub grid: String,
    /// Timing repetitions this unit runs.
    pub repeat: usize,
    runner: Box<dyn Fn() -> Result<UnitData, String>>,
}

impl ExpUnit {
    fn new(
        label: impl Into<String>,
        spec: impl Into<String>,
        grid: impl Into<String>,
        repeat: usize,
        runner: impl Fn() -> Result<UnitData, String> + 'static,
    ) -> Self {
        ExpUnit {
            label: label.into(),
            spec: spec.into(),
            grid: grid.into(),
            repeat,
            runner: Box::new(runner),
        }
    }
}

/// FNV-1a 64-bit over `bytes` (the repo-wide fingerprint hash).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical key string a configuration hashes to. Injective by
/// construction: the fields are joined with `|`, which no field can
/// contain (spec strings use `:`/`=`, grid labels use `(,)+`), and every
/// key component the cache must be sensitive to — experiment id, workload
/// spec, executor grid, seed, repeat count, schema version — appears
/// exactly once. Equivalent spec spellings canonicalize upstream:
/// [`WorkloadSpec`] prints params in declared order however they were
/// parsed, so reordered-but-equal configs map to the same key.
pub fn canonical_key_string(
    exp: &str,
    spec: &str,
    grid: &str,
    seed: u64,
    repeat: usize,
    version: u32,
) -> String {
    format!("{SCHEMA}|v={version}|exp={exp}|spec={spec}|grid={grid}|seed={seed}|repeat={repeat}")
}

/// The cache key of `unit` under `exp` and `seed`.
pub fn unit_key(exp: &str, unit: &ExpUnit, seed: u64) -> u64 {
    fnv1a64(
        canonical_key_string(exp, &unit.spec, &unit.grid, seed, unit.repeat, VERSION).as_bytes(),
    )
}

/// `results/<exp>/<key>.json`.
pub fn result_path(results: &Path, exp: &str, key: u64) -> PathBuf {
    results.join(exp).join(format!("{key:016x}.json"))
}

fn write_result_doc(exp: &str, unit: &ExpUnit, key: u64, seed: u64, data: &UnitData) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{{\n\"schema\":\"{SCHEMA}\",\n\"version\":{VERSION},\n\"exp\":\"{exp}\",\n\
         \"unit\":\"{}\",\n\"spec\":\"{}\",\n\"grid\":\"{}\",\n\"seed\":{seed},\n\
         \"repeat\":{},\n\"key\":\"{key:016x}\",\n",
        unit.label, unit.spec, unit.grid, unit.repeat
    ));
    s.push_str("\"metrics\":{");
    for (i, (k, v)) in data.metrics.iter().enumerate() {
        s.push_str(&format!(
            "\"{k}\":{v}{}",
            if i + 1 < data.metrics.len() { "," } else { "" }
        ));
    }
    s.push('}');
    if !data.curves.is_empty() {
        s.push_str(",\n\"curves\":{");
        for (i, (name, pts)) in data.curves.iter().enumerate() {
            let cells: Vec<String> = pts.iter().map(|&(x, y)| format!("[{x},{y}]")).collect();
            s.push_str(&format!(
                "\"{name}\":[{}]{}",
                cells.join(","),
                if i + 1 < data.curves.len() { "," } else { "" }
            ));
        }
        s.push('}');
    }
    if let Some(points) = &data.points {
        s.push_str(",\n\"points\":");
        s.push_str(points);
    }
    s.push_str("\n}\n");
    s
}

/// Parses a cached result document back into its [`UnitData`], checking
/// the schema tag and version.
pub fn read_result_doc(text: &str) -> Result<UnitData, String> {
    let doc = json::parse(text)?;
    match doc.get("schema").and_then(|s| s.as_str()) {
        Some(s) if s == SCHEMA => {}
        other => return Err(format!("bad schema tag {other:?} (want {SCHEMA})")),
    }
    match doc.get("version").and_then(|v| v.as_u64()) {
        Some(v) if v == VERSION as u64 => {}
        other => return Err(format!("bad cache version {other:?} (want {VERSION})")),
    }
    let mut data = UnitData::default();
    if let Some(json::Json::Obj(fields)) = doc.get("metrics") {
        for (k, v) in fields {
            let v = v
                .as_u64()
                .ok_or_else(|| format!("metric '{k}' is not a u64"))?;
            data.metrics.push((k.clone(), v));
        }
    }
    if let Some(json::Json::Obj(curves)) = doc.get("curves") {
        for (name, pts) in curves {
            let pts = pts
                .as_arr()
                .ok_or_else(|| format!("curve '{name}' is not an array"))?;
            let mut out = Vec::with_capacity(pts.len());
            for p in pts {
                let pair = p.as_arr().filter(|a| a.len() == 2);
                let (x, y) = pair
                    .and_then(|a| Some((a[0].as_u64()?, a[1].as_u64()?)))
                    .ok_or_else(|| format!("curve '{name}' has a malformed point"))?;
                out.push((x, y));
            }
            data.curves.push((name.clone(), out));
        }
    }
    data.points = json::extract_array(text, "points");
    Ok(data)
}

// -------------------------------------------------------------- registry ---

/// One registered experiment: an id, what it reproduces, and the
/// configuration-to-units expansion.
#[derive(Debug)]
pub struct ExperimentDef {
    /// Registry id (`td exp run <id>`).
    pub id: &'static str,
    /// Which plane it wraps.
    pub plane: &'static str,
    /// One-line description.
    pub about: &'static str,
    units: fn(&ExpConfig) -> Result<Vec<ExpUnit>, String>,
}

impl ExperimentDef {
    /// Expands the experiment into its configurations under `cfg`.
    pub fn units(&self, cfg: &ExpConfig) -> Result<Vec<ExpUnit>, String> {
        (self.units)(cfg)
    }
}

/// The experiment registry.
pub static REGISTRY: &[ExperimentDef] = &[
    ExperimentDef {
        id: "e15",
        plane: "churn",
        about: "repair locality: incremental repair vs from-scratch recompute across the churn registry",
        units: e15_units,
    },
    ExperimentDef {
        id: "e17",
        plane: "scaling",
        about: "one-shot family scaling: rounds and messages across the generator families (sequential)",
        units: e17_units,
    },
    ExperimentDef {
        id: "e18",
        plane: "sparse",
        about: "active-fraction trajectory: dense reference scan vs the node-granular sparse production loop",
        units: e18_units,
    },
    ExperimentDef {
        id: "e19",
        plane: "serve",
        about: "serve-plane totals: repair cost and solution fingerprint of a budgeted daemon run",
        units: e19_units,
    },
    ExperimentDef {
        id: "e21",
        plane: "balance",
        about: "protocol race: token dropping vs rotor-router vs matching across families and sizes",
        units: e21_units,
    },
    ExperimentDef {
        id: "perf",
        plane: "perf",
        about: "the perf telemetry trajectory (scenario x executor x size); regenerates BENCH_*.json",
        units: perf_units,
    },
];

/// Looks an experiment up by id.
pub fn find(id: &str) -> Option<&'static ExperimentDef> {
    REGISTRY.iter().find(|d| d.id == id)
}

/// Renders the registry as an aligned listing.
pub fn listing() -> String {
    let mut t = crate::Table::new(&["id", "plane", "description"]);
    for d in REGISTRY {
        t.row(vec![d.id.into(), d.plane.into(), d.about.into()]);
    }
    t.render()
}

/// Resolves requested ids against the registry (empty = all), in registry
/// order, deduplicated. Unknown ids are an error (the CLI maps it to the
/// usage exit code).
pub fn resolve_ids(ids: &[String]) -> Result<Vec<&'static ExperimentDef>, String> {
    if ids.is_empty() {
        return Ok(REGISTRY.iter().collect());
    }
    for id in ids {
        if find(id).is_none() {
            return Err(format!(
                "unknown experiment '{id}' (known: {})",
                REGISTRY.iter().map(|d| d.id).collect::<Vec<_>>().join(", ")
            ));
        }
    }
    Ok(REGISTRY
        .iter()
        .filter(|d| ids.iter().any(|i| i == d.id))
        .collect())
}

// ------------------------------------------------------------- run stage ---

/// How one configuration resolved during a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnitStatus {
    /// Cached result existed; nothing executed, the file is untouched.
    Hit,
    /// No cached result; the configuration executed and was stored.
    Ran,
    /// `--force`: a cached result existed but was re-executed.
    Forced,
}

impl UnitStatus {
    /// Manifest label.
    pub fn label(self) -> &'static str {
        match self {
            UnitStatus::Hit => "hit",
            UnitStatus::Ran => "run",
            UnitStatus::Forced => "forced",
        }
    }
}

/// One manifest row.
#[derive(Clone, Debug)]
pub struct UnitOutcome {
    /// Experiment id.
    pub exp: &'static str,
    /// Unit label.
    pub unit: String,
    /// Cache key.
    pub key: u64,
    /// How the run resolved it.
    pub status: UnitStatus,
}

/// The run manifest: configuration echo plus every unit's hit/miss status.
/// Written to `results/manifest.json` after each run.
#[derive(Clone, Debug)]
pub struct Manifest {
    /// Configuration the run used.
    pub config: ExpConfig,
    /// Whether `--force` was set.
    pub force: bool,
    /// Experiment ids run, in order.
    pub experiments: Vec<String>,
    /// Every unit, in run order.
    pub units: Vec<UnitOutcome>,
}

impl Manifest {
    /// Configurations satisfied from the cache.
    pub fn hits(&self) -> usize {
        self.units
            .iter()
            .filter(|u| u.status == UnitStatus::Hit)
            .count()
    }

    /// Configurations that executed (fresh or forced).
    pub fn misses(&self) -> usize {
        self.units.len() - self.hits()
    }

    /// Serializes the manifest as a `td-exp/v1` JSON document.
    pub fn write_json(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{{\n\"schema\":\"{SCHEMA}\",\n\"version\":{VERSION},\n\
             \"quick\":{},\n\"force\":{},\n\"seed\":{},\n\"repeat\":{},\n",
            self.config.quick, self.force, self.config.seed, self.config.repeat
        ));
        let exps: Vec<String> = self
            .experiments
            .iter()
            .map(|e| format!("\"{e}\""))
            .collect();
        s.push_str(&format!("\"experiments\":[{}],\n", exps.join(",")));
        s.push_str(&format!(
            "\"hits\":{},\n\"misses\":{},\n\"units\":[\n",
            self.hits(),
            self.misses()
        ));
        for (i, u) in self.units.iter().enumerate() {
            s.push_str(&format!(
                "{{\"exp\":\"{}\",\"unit\":\"{}\",\"key\":\"{:016x}\",\"status\":\"{}\"}}{}\n",
                u.exp,
                u.unit,
                u.key,
                u.status.label(),
                if i + 1 < self.units.len() { "," } else { "" }
            ));
        }
        s.push_str("]\n}\n");
        s
    }
}

/// Runs the selected experiments (empty `ids` = all): every configuration
/// whose `results/<exp>/<key>.json` already exists is skipped untouched
/// (unless `force`), everything else executes and is written. The manifest
/// lands in `results/manifest.json`. Errors are unknown ids, unit
/// failures, or I/O failures on the results directory.
pub fn run(
    cfg: &ExpConfig,
    ids: &[String],
    results: &Path,
    force: bool,
) -> Result<Manifest, String> {
    let defs = resolve_ids(ids)?;
    std::fs::create_dir_all(results)
        .map_err(|e| format!("cannot create results dir {}: {e}", results.display()))?;
    let mut manifest = Manifest {
        config: cfg.clone(),
        force,
        experiments: defs.iter().map(|d| d.id.to_string()).collect(),
        units: Vec::new(),
    };
    for def in &defs {
        let dir = results.join(def.id);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        for unit in def.units(cfg)? {
            let key = unit_key(def.id, &unit, cfg.seed);
            let path = result_path(results, def.id, key);
            let status = if path.exists() && !force {
                UnitStatus::Hit
            } else {
                let data =
                    (unit.runner)().map_err(|e| format!("{}/{}: {e}", def.id, unit.label))?;
                let doc = write_result_doc(def.id, &unit, key, cfg.seed, &data);
                std::fs::write(&path, doc)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                if force && manifest.force {
                    UnitStatus::Forced
                } else {
                    UnitStatus::Ran
                }
            };
            manifest.units.push(UnitOutcome {
                exp: def.id,
                unit: unit.label.clone(),
                key,
                status,
            });
        }
    }
    let mpath = results.join("manifest.json");
    std::fs::write(&mpath, manifest.write_json())
        .map_err(|e| format!("cannot write {}: {e}", mpath.display()))?;
    Ok(manifest)
}

// ---------------------------------------------------------- render stage ---

/// Everything the render stage produced, ready to be written out by the
/// caller: per-experiment markdown blocks (for the EXPERIMENTS.md
/// markers), named SVG plots (for `plots/`), and — when the perf
/// experiment was rendered — the regenerated benchmark document.
#[derive(Clone, Debug, Default)]
pub struct Rendered {
    /// `(experiment id, markdown block)` in render order.
    pub tables: Vec<(String, String)>,
    /// `(file name, svg document)` in render order.
    pub plots: Vec<(String, String)>,
    /// The regenerated `td-perf/v1` benchmark document.
    pub bench: Option<String>,
}

/// Loads every cached unit of `def` under `cfg`, in unit order. A missing
/// cache entry is an error naming the `td exp run` invocation that fills
/// it.
fn load_units(
    def: &ExperimentDef,
    cfg: &ExpConfig,
    results: &Path,
) -> Result<Vec<(ExpUnit, UnitData)>, String> {
    let mut out = Vec::new();
    for unit in def.units(cfg)? {
        let key = unit_key(def.id, &unit, cfg.seed);
        let path = result_path(results, def.id, key);
        let text = std::fs::read_to_string(&path).map_err(|_| {
            format!(
                "{}/{}: missing cached result {} — run `td exp run {}{}` first",
                def.id,
                unit.label,
                path.display(),
                def.id,
                if cfg.quick { " --quick" } else { "" }
            )
        })?;
        let data = read_result_doc(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((unit, data));
    }
    Ok(out)
}

/// Renders the selected experiments from a warm cache. Pure function of
/// the cached documents and `cfg`: rerunning render over the same cache
/// produces byte-identical output.
pub fn render(cfg: &ExpConfig, ids: &[String], results: &Path) -> Result<Rendered, String> {
    let defs = resolve_ids(ids)?;
    let mut out = Rendered::default();
    for def in defs {
        let units = load_units(def, cfg, results)?;
        let (table, plot) = match def.id {
            "e15" => (render_e15_table(&units), Some(render_e15_plot(&units))),
            "e17" => (render_e17_table(&units), None),
            "e18" => (render_e18_table(&units), Some(render_e18_plot(&units))),
            "e19" => (render_e19_table(&units), None),
            "e21" => (render_e21_table(&units), Some(render_e21_plot(&units))),
            "perf" => {
                out.bench = Some(render_bench(cfg, &units)?);
                (render_perf_table(&units), None)
            }
            other => return Err(format!("no renderer for experiment '{other}'")),
        };
        let block = format!(
            "<!-- generated by `td exp render {}`; edit results/, not this block -->\n\n{}",
            def.id, table
        );
        out.tables.push((def.id.to_string(), block));
        if let Some((name, svg)) = plot {
            out.plots.push((name, svg));
        }
    }
    Ok(out)
}

/// Replaces the generated block of `id` in `text` (between
/// `<!-- exp:<id>:begin -->` and `<!-- exp:<id>:end -->`) with `block`.
/// Both markers must be present, begin before end.
pub fn splice_generated(text: &str, id: &str, block: &str) -> Result<String, String> {
    let begin = format!("<!-- exp:{id}:begin -->");
    let end = format!("<!-- exp:{id}:end -->");
    let b = text
        .find(&begin)
        .ok_or_else(|| format!("missing marker {begin}"))?;
    let content_start = b + begin.len();
    let e = text[content_start..]
        .find(&end)
        .map(|rel| content_start + rel)
        .ok_or_else(|| format!("missing marker {end} after {begin}"))?;
    Ok(format!(
        "{}\n{}\n{}",
        &text[..content_start],
        block.trim_end(),
        &text[e..]
    ))
}

/// A pipe-table with right-aligned numeric columns after the first.
fn md_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut s = String::new();
    s.push_str(&format!("| {} |\n", header.join(" | ")));
    let aligns: Vec<&str> = (0..header.len())
        .map(|i| if i == 0 { "---" } else { "---:" })
        .collect();
    s.push_str(&format!("|{}|\n", aligns.join("|")));
    for row in rows {
        s.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    s
}

// -------------------------------------------------- experiment: e15 churn ---

fn e15_sizes(kind: ScenarioKind, quick: bool) -> &'static [u32] {
    match (kind, quick) {
        (ScenarioKind::Orientation, false) => &[64, 128, 256, 512, 1024],
        (ScenarioKind::Orientation, true) => &[64],
        (_, false) => &[8, 16, 32, 64],
        (_, true) => &[8],
    }
}

fn e15_units(cfg: &ExpConfig) -> Result<Vec<ExpUnit>, String> {
    let events: u32 = if cfg.quick { 8 } else { 24 };
    let seed = cfg.seed;
    let mut units = Vec::new();
    for &sc in churn_registry() {
        for &size in e15_sizes(sc.kind(), cfg.quick) {
            units.push(ExpUnit::new(
                format!("{}/{size}", sc.name()),
                format!(
                    "churn:{}:size={size}:seed={seed}:events={events}",
                    sc.name()
                ),
                "repair+recompute",
                1,
                move || {
                    let rep = sc.run(size, events, seed, RepairMode::Incremental, true);
                    if !rep.repair.completed {
                        return Err("repair hit the round cap".into());
                    }
                    let rec = rep.recompute.ok_or("recompute not measured")?;
                    Ok(UnitData {
                        metrics: vec![
                            ("n".into(), rep.nodes as u64),
                            ("m".into(), rep.edges as u64),
                            ("events".into(), rep.events as u64),
                            ("repair_rounds".into(), rep.repair.rounds as u64),
                            ("repair_messages".into(), rep.repair.messages),
                            ("repair_steps".into(), rep.repair.node_steps),
                            ("recompute_rounds".into(), rec.rounds as u64),
                            ("recompute_messages".into(), rec.messages),
                            ("recompute_steps".into(), rec.node_steps),
                        ],
                        ..UnitData::default()
                    })
                },
            ));
        }
    }
    Ok(units)
}

fn render_e15_table(units: &[(ExpUnit, UnitData)]) -> String {
    let mut rows = Vec::new();
    for (u, d) in units {
        let rep = metric(d, "repair_steps").unwrap_or(0);
        let rec = metric(d, "recompute_steps").unwrap_or(0);
        let ratio = (rec + rep / 2).checked_div(rep).unwrap_or(0);
        rows.push(vec![
            u.label.clone(),
            metric(d, "n").unwrap_or(0).to_string(),
            metric(d, "events").unwrap_or(0).to_string(),
            rep.to_string(),
            metric(d, "repair_messages").unwrap_or(0).to_string(),
            rec.to_string(),
            format!("{ratio}x"),
        ]);
    }
    md_table(
        &[
            "scenario/size",
            "n",
            "events",
            "repair steps",
            "repair msgs",
            "recompute steps",
            "recompute/repair",
        ],
        &rows,
    )
}

fn render_e15_plot(units: &[(ExpUnit, UnitData)]) -> (String, String) {
    // Two log-log series per scenario: total repair steps and total
    // recompute steps against n — the O(Δ)-local vs Θ(n) separation.
    let mut series: Vec<Series> = Vec::new();
    for (u, d) in units {
        let scenario = u.label.split('/').next().unwrap_or(&u.label).to_string();
        let n = metric(d, "n").unwrap_or(0);
        for (suffix, key) in [("repair", "repair_steps"), ("recompute", "recompute_steps")] {
            let name = format!("{scenario} {suffix}");
            let y = metric(d, key).unwrap_or(0);
            match series.iter_mut().find(|s| s.name == name) {
                Some(s) => s.points.push((n, y)),
                None => series.push(Series {
                    name,
                    points: vec![(n, y)],
                }),
            }
        }
    }
    let chart = Chart {
        title: "e15: repair locality — node steps over the whole trace".into(),
        x_label: "n".into(),
        y_label: "node steps".into(),
        log_x: true,
        log_y: true,
    };
    (
        "repair-locality.svg".into(),
        plot::render_line_chart(&chart, &series),
    )
}

// ------------------------------------------------ experiment: e17 scaling ---

/// Family × size ladder of the one-shot scaling experiment, mirroring the
/// repro binary's E17 plan.
const E17_PLAN: &[(&str, &[u32])] = &[
    ("regular", &[24, 48, 96]),
    ("grid", &[5, 8, 12]),
    ("torus", &[4, 6, 9]),
    ("hypercube", &[3, 4, 5, 6]),
    ("layered", &[6, 12, 24]),
    ("rotor", &[8, 16, 32, 64]),
    ("zipf-cluster", &[6, 10, 14]),
];

fn e17_units(cfg: &ExpConfig) -> Result<Vec<ExpUnit>, String> {
    let seed = cfg.seed;
    let mut units = Vec::new();
    for &(family, sizes) in E17_PLAN {
        let take = if cfg.quick { 2 } else { sizes.len() };
        for &size in &sizes[..take.min(sizes.len())] {
            let spec = WorkloadSpec::new(family)?.with_size(size).with_seed(seed);
            units.push(ExpUnit::new(
                format!("{family}/{size}"),
                spec.to_string(),
                "sequential",
                1,
                move || {
                    let spec = WorkloadSpec::new(family)
                        .expect("registered family")
                        .with_size(size)
                        .with_seed(seed);
                    let (n, m, rounds, messages) = run_one_shot_sequential(&spec)?;
                    Ok(UnitData {
                        metrics: vec![
                            ("n".into(), n),
                            ("m".into(), m),
                            ("rounds".into(), rounds),
                            ("messages".into(), messages),
                        ],
                        ..UnitData::default()
                    })
                },
            ));
        }
    }
    Ok(units)
}

/// Builds and solves `spec` on the sequential executor, verifies, and
/// returns `(n, m, rounds, messages)`.
fn run_one_shot_sequential(spec: &WorkloadSpec) -> Result<(u64, u64, u64, u64), String> {
    let sim = Simulator::sequential();
    match spec.build()? {
        WorkloadInstance::Game(game) => {
            let res = proposal::run_on_simulator(&game, &sim);
            td_core::verify_solution(&game, &res.solution).map_err(|e| format!("{spec}: {e:?}"))?;
            Ok((
                game.num_nodes() as u64,
                game.graph().num_edges() as u64,
                res.comm_rounds as u64,
                res.messages,
            ))
        }
        WorkloadInstance::Orientation(g) => {
            let res = td_orient::protocol::run_distributed(&g, &sim);
            res.orientation
                .verify_stable(&g)
                .map_err(|e| format!("{spec}: {e:?}"))?;
            Ok((
                g.num_nodes() as u64,
                g.num_edges() as u64,
                res.comm_rounds as u64,
                res.messages,
            ))
        }
        WorkloadInstance::Assignment { inst, bound } => {
            let res = td_assign::protocol::run_distributed_assignment(&inst, bound, &sim);
            match bound {
                Some(k) => res.assignment.verify_k_bounded(&inst, k),
                None => res.assignment.verify_stable(&inst),
            }
            .map_err(|e| format!("{spec}: {e:?}"))?;
            let edges: usize = (0..inst.num_customers())
                .map(|c| inst.servers_of(c).len())
                .sum();
            Ok((
                (inst.num_customers() + inst.num_servers()) as u64,
                edges as u64,
                res.comm_rounds as u64,
                res.messages,
            ))
        }
        _ => Err(format!("{spec}: not a one-shot family")),
    }
}

fn render_e17_table(units: &[(ExpUnit, UnitData)]) -> String {
    let mut rows = Vec::new();
    for (u, d) in units {
        rows.push(vec![
            u.spec.clone(),
            metric(d, "n").unwrap_or(0).to_string(),
            metric(d, "m").unwrap_or(0).to_string(),
            metric(d, "rounds").unwrap_or(0).to_string(),
            metric(d, "messages").unwrap_or(0).to_string(),
        ]);
    }
    md_table(&["spec", "n", "m", "rounds", "messages"], &rows)
}

// ------------------------------------------------- experiment: e18 sparse ---

const E18_PLAN: &[(&str, &[u32], &[u32])] = &[
    // (perf scenario, full sizes, quick sizes)
    ("drain-wave", &[8_192, 32_768, 131_072], &[2_048]),
    ("rotor", &[64, 256, 1024], &[64]),
];

fn e18_units(cfg: &ExpConfig) -> Result<Vec<ExpUnit>, String> {
    let (seed, repeat) = (cfg.seed, cfg.repeat);
    let mut units = Vec::new();
    for &(scenario, full, quick) in E18_PLAN {
        for &size in if cfg.quick { quick } else { full } {
            units.push(ExpUnit::new(
                format!("{scenario}/{size}"),
                format!("{scenario}:size={size}:seed={seed}"),
                "dense+sparse",
                repeat,
                move || {
                    let pcfg = perf_cfg(scenario, size, seed, repeat);
                    let rep = perf::run_sweep(&pcfg)?;
                    let by = |label: &str| {
                        rep.points
                            .iter()
                            .find(|p| p.executor == label)
                            .ok_or_else(|| format!("missing {label} point"))
                    };
                    let dense = by("dense")?;
                    let sparse = by("sparse")?;
                    let grid = dense.nodes as u64 * dense.rounds;
                    let active_ppm = dense
                        .counters
                        .node_rounds
                        .saturating_mul(1_000_000)
                        .checked_div(grid)
                        .unwrap_or(0);
                    Ok(UnitData {
                        metrics: vec![
                            ("nodes".into(), dense.nodes as u64),
                            ("rounds".into(), dense.rounds),
                            ("messages".into(), dense.messages),
                            ("node_rounds".into(), dense.counters.node_rounds),
                            ("halted_scans".into(), dense.counters.halted_scans),
                            ("sparse_skips".into(), sparse.counters.sparse_skips),
                            ("active_ppm".into(), active_ppm),
                            ("dense_wall_ns".into(), dense.wall_ns as u64),
                            ("sparse_wall_ns".into(), sparse.wall_ns as u64),
                        ],
                        curves: vec![(
                            "active".into(),
                            dense
                                .curve
                                .rounds
                                .iter()
                                .zip(&dense.curve.active)
                                .map(|(&r, &a)| (r as u64, a as u64))
                                .collect(),
                        )],
                        points: None,
                    })
                },
            ));
        }
    }
    Ok(units)
}

fn render_e18_table(units: &[(ExpUnit, UnitData)]) -> String {
    let mut rows = Vec::new();
    for (u, d) in units {
        rows.push(vec![
            u.label.clone(),
            metric(d, "nodes").unwrap_or(0).to_string(),
            metric(d, "rounds").unwrap_or(0).to_string(),
            metric(d, "node_rounds").unwrap_or(0).to_string(),
            metric(d, "halted_scans").unwrap_or(0).to_string(),
            metric(d, "sparse_skips").unwrap_or(0).to_string(),
            metric(d, "active_ppm").unwrap_or(0).to_string(),
        ]);
    }
    md_table(
        &[
            "scenario/size",
            "n",
            "rounds",
            "node-rounds stepped",
            "halted scans (dense)",
            "sparse skips",
            "active ppm",
        ],
        &rows,
    )
}

fn render_e18_plot(units: &[(ExpUnit, UnitData)]) -> (String, String) {
    let mut series = Vec::new();
    for (u, d) in units {
        if let Some((_, pts)) = d.curves.iter().find(|(name, _)| name == "active") {
            series.push(Series {
                name: u.label.clone(),
                points: pts.clone(),
            });
        }
    }
    let chart = Chart {
        title: "e18: active nodes per round (dense trace)".into(),
        x_label: "round".into(),
        y_label: "active nodes".into(),
        log_x: false,
        log_y: true,
    };
    (
        "active-fraction.svg".into(),
        plot::render_line_chart(&chart, &series),
    )
}

// -------------------------------------------------- experiment: e19 serve ---

fn e19_units(cfg: &ExpConfig) -> Result<Vec<ExpUnit>, String> {
    let budget: u32 = if cfg.quick { 64 } else { 256 };
    let seed = cfg.seed;
    let mut units = Vec::new();
    for family in ["churn-orient", "churn-assign"] {
        let scfg = e19_config(family, seed, budget)?;
        units.push(ExpUnit::new(
            family,
            scfg.spec.to_string(),
            "serve",
            1,
            move || {
                let scfg = e19_config(family, seed, budget)?;
                let rep = crate::serve::serve(&scfg)?;
                let mut metrics = rep.canonical_metrics();
                // Wall-clock extras: nondeterministic, excluded from the
                // canonical subset, still worth caching for the summary.
                metrics.push(("wall_ns".into(), rep.wall_ns));
                metrics.push(("busy_ns".into(), rep.busy_ns));
                metrics.push(("p99_ns".into(), rep.latency.p99_ns));
                Ok(UnitData {
                    metrics,
                    ..UnitData::default()
                })
            },
        ));
    }
    Ok(units)
}

fn e19_config(family: &str, seed: u64, budget: u32) -> Result<ServeConfig, String> {
    let mut scfg = ServeConfig::new(family)?;
    scfg.spec = scfg.spec.with_seed(seed).with_param("events", budget);
    scfg.budget = budget;
    scfg.rate = 0;
    Ok(scfg)
}

fn render_e19_table(units: &[(ExpUnit, UnitData)]) -> String {
    let mut rows = Vec::new();
    for (u, d) in units {
        rows.push(vec![
            u.label.clone(),
            metric(d, "nodes").unwrap_or(0).to_string(),
            metric(d, "events").unwrap_or(0).to_string(),
            metric(d, "repair_rounds").unwrap_or(0).to_string(),
            metric(d, "repair_messages").unwrap_or(0).to_string(),
            metric(d, "repair_node_steps").unwrap_or(0).to_string(),
            metric(d, "max_load").unwrap_or(0).to_string(),
            format!("{:016x}", metric(d, "fingerprint").unwrap_or(0)),
        ]);
    }
    md_table(
        &[
            "family",
            "nodes",
            "events",
            "repair rounds",
            "repair msgs",
            "node steps",
            "max load",
            "fingerprint",
        ],
        &rows,
    )
}

// ------------------------------------------------ experiment: e21 balance ---

const E21_FAMILIES_FULL: &[&str] = &["grid", "torus", "rotor"];
const E21_FAMILIES_QUICK: &[&str] = &["grid", "torus"];
const E21_SIZES_FULL: &[u32] = &[8, 16, 32];
const E21_SIZES_QUICK: &[u32] = &[8];

fn e21_config(size: u32, seed: u64) -> CompareConfig {
    CompareConfig {
        size: Some(size),
        seed,
        max_events: None,
        ..CompareConfig::default()
    }
}

fn e21_units(cfg: &ExpConfig) -> Result<Vec<ExpUnit>, String> {
    let (families, sizes) = if cfg.quick {
        (E21_FAMILIES_QUICK, E21_SIZES_QUICK)
    } else {
        (E21_FAMILIES_FULL, E21_SIZES_FULL)
    };
    let seed = cfg.seed;
    let mut units = Vec::new();
    for &family in families {
        for &size in sizes {
            units.push(ExpUnit::new(
                format!("{family}/{size}"),
                WorkloadSpec::new(family)?
                    .with_size(size)
                    .with_seed(seed)
                    .to_string(),
                "churn",
                1,
                move || {
                    let ccfg = e21_config(size, seed);
                    let rep = crate::compare::compare_families(&ccfg, &[family.to_string()])?;
                    let mut metrics = Vec::new();
                    for (i, row) in rep.rows.iter().enumerate() {
                        if i == 0 {
                            metrics.push(("n".into(), row.nodes as u64));
                            metrics.push(("m".into(), row.edges as u64));
                            metrics.push(("events".into(), row.events as u64));
                            metrics.push((
                                "initial_discrepancy".into(),
                                row.run.initial_discrepancy as u64,
                            ));
                        }
                        metrics.extend(row.canonical_metrics());
                    }
                    Ok(UnitData {
                        metrics,
                        ..UnitData::default()
                    })
                },
            ));
        }
    }
    Ok(units)
}

/// The protocol names present in a cached e21 unit, in metric order.
fn e21_protocols(d: &UnitData) -> Vec<String> {
    let mut out = Vec::new();
    for (k, _) in &d.metrics {
        if let Some(p) = k.strip_suffix("/rounds") {
            if !out.iter().any(|o| o == p) {
                out.push(p.to_string());
            }
        }
    }
    out
}

fn render_e21_table(units: &[(ExpUnit, UnitData)]) -> String {
    let mut rows = Vec::new();
    for (u, d) in units {
        for p in e21_protocols(d) {
            let m = |suffix: &str| metric(d, &format!("{p}/{suffix}")).unwrap_or(0);
            rows.push(vec![
                u.label.clone(),
                p.clone(),
                metric(d, "n").unwrap_or(0).to_string(),
                metric(d, "initial_discrepancy").unwrap_or(0).to_string(),
                m("rounds").to_string(),
                m("messages").to_string(),
                m("moves").to_string(),
                m("discrepancy").to_string(),
                m("max_gap").to_string(),
            ]);
        }
    }
    md_table(
        &[
            "family/size",
            "protocol",
            "n",
            "disc0",
            "rounds",
            "messages",
            "moves",
            "disc",
            "gap",
        ],
        &rows,
    )
}

fn render_e21_plot(units: &[(ExpUnit, UnitData)]) -> (String, String) {
    // One series per (family, protocol): convergence rounds against n.
    let mut series: Vec<Series> = Vec::new();
    for (u, d) in units {
        let family = u.label.split('/').next().unwrap_or(&u.label).to_string();
        let n = metric(d, "n").unwrap_or(0);
        for p in e21_protocols(d) {
            let name = format!("{family} {p}");
            let y = metric(d, &format!("{p}/rounds")).unwrap_or(0);
            match series.iter_mut().find(|s| s.name == name) {
                Some(s) => s.points.push((n, y)),
                None => series.push(Series {
                    name,
                    points: vec![(n, y)],
                }),
            }
        }
    }
    let chart = Chart {
        title: "e21: balancer race — rounds to convergence".into(),
        x_label: "n".into(),
        y_label: "rounds".into(),
        log_x: true,
        log_y: true,
    };
    ("race.svg".into(), plot::render_line_chart(&chart, &series))
}

// -------------------------------------------------- experiment: perf plane ---

fn perf_units(cfg: &ExpConfig) -> Result<Vec<ExpUnit>, String> {
    let (seed, repeat) = (cfg.seed, cfg.repeat);
    let mut units = Vec::new();
    for sc in perf::REGISTRY {
        let sizes: &[u32] = if cfg.quick { &sc.sizes[..1] } else { sc.sizes };
        for &size in sizes {
            units.push(ExpUnit::new(
                format!("{}/{size}", sc.name),
                format!("{}:size={size}:seed={seed}", sc.name),
                perf::grid_labels(sc.name).join("+"),
                repeat,
                move || {
                    let pcfg = perf_cfg(sc.name, size, seed, repeat);
                    let rep = perf::run_sweep(&pcfg)?;
                    let mut metrics = Vec::new();
                    let mut fragments = Vec::new();
                    for p in &rep.points {
                        metrics.extend(p.canonical_metrics());
                        metrics.push((format!("{}/wall_ns", p.executor), p.wall_ns as u64));
                        fragments.push(perf::point_json(p));
                    }
                    Ok(UnitData {
                        metrics,
                        curves: Vec::new(),
                        points: Some(format!("[{}]", fragments.join(","))),
                    })
                },
            ));
        }
    }
    Ok(units)
}

fn perf_cfg(scenario: &str, size: u32, seed: u64, repeat: usize) -> SweepConfig {
    SweepConfig {
        scenario: Some(scenario.into()),
        sizes: Some(vec![size]),
        seed,
        quick: false,
        repeat,
    }
}

/// The executor labels present in a cached perf unit, in metric order.
fn perf_executors(d: &UnitData) -> Vec<String> {
    let mut out = Vec::new();
    for (k, _) in &d.metrics {
        if let Some(exec) = k.strip_suffix("/rounds") {
            if !out.iter().any(|o| o == exec) {
                out.push(exec.to_string());
            }
        }
    }
    out
}

fn render_perf_table(units: &[(ExpUnit, UnitData)]) -> String {
    let mut rows = Vec::new();
    for (u, d) in units {
        for exec in perf_executors(d) {
            let m = |suffix: &str| metric(d, &format!("{exec}/{suffix}"));
            rows.push(vec![
                u.label.clone(),
                exec.clone(),
                m("rounds").unwrap_or(0).to_string(),
                m("messages").unwrap_or(0).to_string(),
                m("node_steps")
                    .or_else(|| m("node_rounds"))
                    .unwrap_or(0)
                    .to_string(),
                m("sparse_skips").map_or("-".into(), |v| v.to_string()),
            ]);
        }
    }
    md_table(
        &[
            "scenario/size",
            "executor",
            "rounds",
            "messages",
            "work (node steps)",
            "sparse skips",
        ],
        &rows,
    )
}

/// Regenerates the `td-perf/v1` benchmark document from the cached perf
/// units: the header is rebuilt from `cfg`, the cached point fragments are
/// spliced back verbatim, and the derived speedup is recomputed from the
/// cached wall-clock metrics — the same ratio [`perf::write_json`] emits,
/// sourced from the cache instead of a live sweep.
fn render_bench(cfg: &ExpConfig, units: &[(ExpUnit, UnitData)]) -> Result<String, String> {
    let mut executors: Vec<String> = Vec::new();
    let mut inners: Vec<String> = Vec::new();
    for (u, d) in units {
        for e in perf_executors(d) {
            if !executors.contains(&e) {
                executors.push(e);
            }
        }
        let raw = d
            .points
            .as_ref()
            .ok_or_else(|| format!("perf/{}: cached result lacks points", u.label))?;
        let inner = raw
            .strip_prefix('[')
            .and_then(|r| r.strip_suffix(']'))
            .ok_or_else(|| format!("perf/{}: malformed points fragment", u.label))?;
        if !inner.is_empty() {
            inners.push(inner.to_string());
        }
    }
    let mut s = perf::header_json(cfg.seed, cfg.repeat, &executors);
    s.push_str("\"points\":[\n");
    s.push_str(&inners.join(",\n"));
    s.push_str("\n],\n\"derived\":{");
    // Largest-size unit per scenario, scenario registry order.
    let mut speedups: Vec<String> = Vec::new();
    for sc in perf::REGISTRY {
        let best = units
            .iter()
            .filter(|(u, _)| u.label.split('/').next() == Some(sc.name))
            .max_by_key(|(u, _)| {
                u.label
                    .rsplit('/')
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or(0)
            });
        let Some((_, d)) = best else { continue };
        let wall = |exec: &str| metric(d, &format!("{exec}/wall_ns")).filter(|&w| w > 0);
        let Some(dense) = wall("dense") else {
            continue;
        };
        if let Some(w) = wall("sparse") {
            speedups.push(format!(
                "\"sparse_speedup_{}\":{:.3}",
                sc.name,
                dense as f64 / w as f64
            ));
        }
    }
    s.push_str(&speedups.join(","));
    s.push_str("}\n}\n");
    Ok(s)
}

/// The work counters of a `td-perf/v1` row that [`check_bench`] compares
/// exactly: each is deterministic on any host.
pub const BENCH_COUNTERS: [&str; 7] = [
    "rounds",
    "messages",
    "node_rounds",
    "node_steps",
    "halted_scans",
    "sparse_skips",
    "stamp_scans",
];

/// Checks the benchmark document `rendered` against `committed`: every row
/// of `rendered` whose (scenario, executor, size) also has a row in
/// `committed` must agree with it on each [`BENCH_COUNTERS`] entry the
/// committed row carries, and every (scenario, executor) pair of
/// `committed` must have a rendered row at some size — so a renamed or
/// dropped executor fails the gate instead of shrinking it. Returns the
/// number of rows compared, or one line per disagreement; documents that
/// do not parse, or share no row, fail.
pub fn check_bench(rendered: &str, committed: &str) -> Result<usize, Vec<String>> {
    let points = |doc: &str, what: &str| -> Result<Vec<json::Json>, Vec<String>> {
        json::parse(doc)
            .map_err(|e| vec![format!("{what}: {e}")])?
            .get("points")
            .and_then(|p| p.as_arr())
            .map(<[_]>::to_vec)
            .ok_or_else(|| vec![format!("{what}: not a td-perf document with points")])
    };
    let field =
        |p: &json::Json, name: &str| p.get(name).and_then(|v| v.as_str()).map(str::to_owned);
    let pair = |p: &json::Json| (field(p, "scenario"), field(p, "executor"));
    let key = |p: &json::Json| (pair(p), p.get("size").and_then(|v| v.as_u64()));
    let show = |v: &Option<String>| v.clone().unwrap_or_else(|| "?".into());
    let committed = points(committed, "committed")?;
    let rendered = points(rendered, "rendered")?;
    let mut compared = 0;
    let mut errors = Vec::new();
    for row in &rendered {
        let k = key(row);
        let Some(want) = committed.iter().find(|c| key(c) == k) else {
            continue;
        };
        compared += 1;
        for counter in BENCH_COUNTERS {
            let expected = want.get(counter).and_then(|v| v.as_u64());
            let got = row.get(counter).and_then(|v| v.as_u64());
            if expected.is_some() && got != expected {
                let ((scenario, executor), size) = &k;
                errors.push(format!(
                    "{} {} size {}: {counter} {} (committed {})",
                    show(scenario),
                    show(executor),
                    size.unwrap_or(0),
                    got.map_or("missing".into(), |g| g.to_string()),
                    expected.unwrap_or(0)
                ));
            }
        }
    }
    let mut uncovered = Vec::new();
    for row in &committed {
        let p = pair(row);
        if !uncovered.contains(&p) && !rendered.iter().any(|r| pair(r) == p) {
            uncovered.push(p);
        }
    }
    for (scenario, executor) in &uncovered {
        errors.push(format!(
            "{} {}: committed, but no rendered row at any size",
            show(scenario),
            show(executor)
        ));
    }
    if compared == 0 {
        errors.push("no (scenario, executor, size) row in common".into());
    }
    if errors.is_empty() {
        Ok(compared)
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_bench_compares_deterministic_counters_of_shared_rows() {
        let doc = |rows: &[&str]| {
            format!(
                "{{\"schema\":\"td-perf/v1\",\"points\":[{}]}}",
                rows.join(",")
            )
        };
        let row = |exec: &str, size: u32, rounds: u32, local: u32| {
            format!(
                "{{\"scenario\":\"rotor\",\"executor\":\"{exec}\",\"size\":{size},\
                 \"rounds\":{rounds},\"messages\":9,\"wall_ns\":{},\"local_messages\":{local}}}",
                1000 + rounds
            )
        };
        let committed = doc(&[&row("sequential", 64, 26, 9), &row("sparse", 64, 26, 9)]);
        // Same counters, other wall time and message split; a row the
        // committed file lacks is ignored.
        let same = doc(&[
            &row("sequential", 64, 26, 9),
            &row("sparse", 64, 26, 5),
            &row("sequential", 128, 99, 9),
        ]);
        assert_eq!(check_bench(&same, &committed), Ok(2));
        let off = doc(&[&row("sequential", 64, 27, 9), &row("sparse", 64, 26, 9)]);
        let errs = check_bench(&off, &committed).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(
            errs[0].contains("rotor sequential size 64: rounds 27 (committed 26)"),
            "{errs:?}"
        );
        let disjoint = doc(&[&row("sequential", 128, 26, 9)]);
        assert!(check_bench(&disjoint, &committed).is_err());
        assert!(check_bench("not json", &committed).is_err());
    }

    /// A committed (scenario, executor) pair with no rendered row at any
    /// size fails the gate, even when every shared row agrees: a renamed
    /// or dropped executor cannot shrink the comparison silently.
    #[test]
    fn check_bench_fails_when_a_committed_pair_has_no_rendered_row() {
        let doc = |rows: &[(&str, &str, u32)]| {
            let rows: Vec<String> = rows
                .iter()
                .map(|(scenario, exec, size)| {
                    format!(
                        "{{\"scenario\":\"{scenario}\",\"executor\":\"{exec}\",\
                         \"size\":{size},\"rounds\":7}}"
                    )
                })
                .collect();
            format!("{{\"points\":[{}]}}", rows.join(","))
        };
        let committed = doc(&[
            ("rotor", "sequential", 64),
            ("rotor", "sequential", 256),
            ("rotor", "sparse", 256),
            ("torus", "sequential", 6),
        ]);
        // Every pair covered, at any committed size: the gate passes.
        let covered = doc(&[
            ("rotor", "sequential", 64),
            ("rotor", "sparse", 64),
            ("torus", "sequential", 6),
        ]);
        assert_eq!(check_bench(&covered, &committed), Ok(2));
        // The sparse rows were renamed away: the shared rows still agree,
        // but the committed pair is reported.
        let renamed = doc(&[
            ("rotor", "sequential", 64),
            ("rotor", "sparse-lane", 64),
            ("torus", "sequential", 6),
        ]);
        let errs = check_bench(&renamed, &committed).unwrap_err();
        assert_eq!(
            errs,
            vec!["rotor sparse: committed, but no rendered row at any size".to_string()]
        );
        // A dropped scenario is reported once, not once per committed size.
        let dropped = doc(&[("torus", "sequential", 6)]);
        let errs = check_bench(&dropped, &committed).unwrap_err();
        assert_eq!(errs.len(), 2, "{errs:?}");
    }

    #[test]
    fn registry_ids_unique_and_findable() {
        let mut ids: Vec<&str> = REGISTRY.iter().map(|d| d.id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate experiment ids");
        for id in ids {
            assert!(find(id).is_some());
        }
        assert!(find("e99").is_none());
        assert!(listing().contains("e17"));
    }

    #[test]
    fn resolve_ids_keeps_registry_order_and_rejects_unknown() {
        let picked = resolve_ids(&["e17".into(), "e15".into()]).unwrap();
        let ids: Vec<&str> = picked.iter().map(|d| d.id).collect();
        assert_eq!(ids, vec!["e15", "e17"]);
        assert_eq!(resolve_ids(&[]).unwrap().len(), REGISTRY.len());
        let err = resolve_ids(&["nope".into()]).unwrap_err();
        assert!(err.contains("unknown experiment"), "{err}");
    }

    #[test]
    fn key_is_sensitive_to_every_component() {
        let base = canonical_key_string("e17", "grid:size=8:seed=42", "sequential", 42, 1, VERSION);
        let variants = [
            canonical_key_string("e15", "grid:size=8:seed=42", "sequential", 42, 1, VERSION),
            canonical_key_string("e17", "grid:size=9:seed=42", "sequential", 42, 1, VERSION),
            canonical_key_string("e17", "grid:size=8:seed=42", "sparse", 42, 1, VERSION),
            canonical_key_string("e17", "grid:size=8:seed=42", "sequential", 43, 1, VERSION),
            canonical_key_string("e17", "grid:size=8:seed=42", "sequential", 42, 3, VERSION),
            canonical_key_string(
                "e17",
                "grid:size=8:seed=42",
                "sequential",
                42,
                1,
                VERSION + 1,
            ),
        ];
        for v in &variants {
            assert_ne!(&base, v);
        }
        assert_ne!(fnv1a64(base.as_bytes()), fnv1a64(variants[0].as_bytes()));
    }

    #[test]
    fn result_doc_round_trips() {
        let unit = ExpUnit::new("u/1", "grid:size=8:seed=42", "sequential", 1, || {
            Ok(UnitData::default())
        });
        let data = UnitData {
            metrics: vec![("n".into(), 64), ("rounds".into(), 35)],
            curves: vec![("active".into(), vec![(0, 64), (1, 60)])],
            points: Some("[{\"x\":1}]".into()),
        };
        let key = unit_key("e17", &unit, 42);
        let doc = write_result_doc("e17", &unit, key, 42, &data);
        let back = read_result_doc(&doc).unwrap();
        assert_eq!(back, data);
        assert!(read_result_doc("{\"schema\":\"nope\"}").is_err());
    }

    #[test]
    fn quick_units_expand_for_every_experiment() {
        let cfg = ExpConfig::quick();
        for def in REGISTRY {
            let units = def
                .units(&cfg)
                .unwrap_or_else(|e| panic!("{}: {e}", def.id));
            assert!(!units.is_empty(), "{}: no units", def.id);
            let mut labels: Vec<&str> = units.iter().map(|u| u.label.as_str()).collect();
            labels.sort_unstable();
            let before = labels.len();
            labels.dedup();
            assert_eq!(labels.len(), before, "{}: duplicate unit labels", def.id);
            // Keys are unique across the experiment's units.
            let mut keys: Vec<u64> = units
                .iter()
                .map(|u| unit_key(def.id, u, cfg.seed))
                .collect();
            keys.sort_unstable();
            let kb = keys.len();
            keys.dedup();
            assert_eq!(keys.len(), kb, "{}: colliding unit keys", def.id);
        }
    }

    #[test]
    fn splice_replaces_only_the_marked_block() {
        let text = "head\n<!-- exp:e17:begin -->\nold\n<!-- exp:e17:end -->\ntail\n";
        let out = splice_generated(text, "e17", "| a |\n|---|\n| 1 |\n").unwrap();
        assert!(out.contains("| a |"));
        assert!(!out.contains("old"));
        assert!(out.starts_with("head\n<!-- exp:e17:begin -->\n"));
        assert!(out.ends_with("<!-- exp:e17:end -->\ntail\n"));
        // Splicing is idempotent for the same block.
        let again = splice_generated(&out, "e17", "| a |\n|---|\n| 1 |\n").unwrap();
        assert_eq!(out, again);
        assert!(splice_generated("no markers", "e17", "x").is_err());
        assert!(splice_generated("<!-- exp:e17:begin -->", "e17", "x").is_err());
    }

    #[test]
    fn manifest_counts_and_serializes() {
        let mut m = Manifest {
            config: ExpConfig::quick(),
            force: false,
            experiments: vec!["e17".into()],
            units: vec![
                UnitOutcome {
                    exp: "e17",
                    unit: "grid/5".into(),
                    key: 7,
                    status: UnitStatus::Hit,
                },
                UnitOutcome {
                    exp: "e17",
                    unit: "grid/8".into(),
                    key: 8,
                    status: UnitStatus::Ran,
                },
            ],
        };
        assert_eq!(m.hits(), 1);
        assert_eq!(m.misses(), 1);
        let doc = m.write_json();
        assert!(doc.contains("\"schema\":\"td-exp/v1\""));
        assert!(doc.contains("\"hits\":1"));
        let parsed = json::parse(&doc).unwrap();
        assert_eq!(parsed.get("misses").and_then(|v| v.as_u64()), Some(1));
        m.units[1].status = UnitStatus::Forced;
        assert!(m.write_json().contains("\"status\":\"forced\""));
    }
}
