//! Percentiles, input fingerprints and process memory.

use std::time::Duration;

/// Milliseconds, with all their digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile `q` (0..=1) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Requests completed and time spent inside request calls, per second of
/// the timed phase.
#[derive(Default)]
pub struct Seconds(Vec<(usize, Duration)>);

impl Seconds {
    /// Counts one request of second `second` that spent `busy` in its call.
    pub fn add(&mut self, second: usize, busy: Duration) {
        if self.0.len() <= second {
            self.0.resize(second + 1, (0, Duration::ZERO));
        }
        self.0[second].0 += 1;
        self.0[second].1 += busy;
    }

    /// Requests per second of busy time, for each of the first `full`
    /// seconds that completed a request.
    pub fn rates(&self, full: usize) -> Vec<f64> {
        self.0
            .iter()
            .take(full)
            .filter(|(n, busy)| *n > 0 && !busy.is_zero())
            .map(|(n, busy)| *n as f64 / busy.as_secs_f64())
            .collect()
    }
}

/// How much slower the traced pass's median request was than the untraced
/// pass's, in percent.
pub fn overhead_pct(plain: &[f64], traced: &[f64]) -> f64 {
    (percentile(traced, 0.5) / percentile(plain, 0.5) - 1.0) * 100.0
}

/// `{"p50": .., "p90": .., "p99": .., "n": ..}`: percentiles with the
/// sample count they rest on, for the result record.
pub fn tail_record(values: &[f64]) -> String {
    format!(
        "{{\"p50\":{},\"p90\":{},\"p99\":{},\"n\":{}}}",
        crate::jnum(percentile(values, 0.5)),
        crate::jnum(percentile(values, 0.9)),
        crate::jnum(percentile(values, 0.99)),
        values.len()
    )
}

/// A JSON array of numbers.
pub fn jlist(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| crate::jnum(*v)).collect();
    format!("[{}]", items.join(","))
}

/// FNV-1a fingerprint of a word stream.
pub fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = words.into_iter().flat_map(u64::to_le_bytes).collect();
    td_bench::exp::fnv1a64(&bytes)
}

/// A fingerprint as a JSON string of 16 hex digits.
pub fn hex(fp: u64) -> String {
    format!("\"{fp:016x}\"")
}

/// Words describing a graph exactly: node count, then every edge.
pub fn graph_words(g: &td_graph::CsrGraph) -> impl Iterator<Item = u64> + '_ {
    std::iter::once(g.num_nodes() as u64).chain(
        g.edge_list()
            .map(|(_, u, v)| (u64::from(u.0) << 32) | u64::from(v.0)),
    )
}

/// A numeric field of `/proc/self/status`, such as `VmHWM` or `Threads`.
pub fn proc_status(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.split(':').next() == Some(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Minor page faults this process has taken (`/proc/self/stat`, field 10;
/// the command name before it, in parentheses, may hold spaces); 0 where
/// it cannot be read.
pub fn minor_faults() -> u64 {
    let read = || {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        let after_name = stat.get(stat.rfind(')')? + 2..)?;
        after_name.split_whitespace().nth(7)?.parse().ok()
    };
    read().unwrap_or(0)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM").map_or(0.0, |kb| kb / 1024.0)
}
