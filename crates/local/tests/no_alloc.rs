//! Proof of the zero-allocation hot loops: after warm-up (arena + state
//! setup), `Simulator::run` performs **no per-round message-buffer
//! allocations** — the flat message arena is reused across rounds, delivery
//! is a buffer-parity flip, and nothing in the round loop touches the
//! allocator — and a `ChurnSim` repair reuses its wake buffers instead of
//! allocating a fresh awake list per round. We verify this with a
//! counting global allocator: for a protocol whose own code never
//! allocates, the total allocation count of a run must be *independent of
//! the number of rounds*.
//!
//! The counter is process-global, so nothing else may allocate while a
//! measurement is open: this file is a `harness = false` test whose `main`
//! runs the checks one after another on the main thread (libtest's runner
//! threads and output capture allocate at unpredictable moments). It prints
//! libtest's report lines so the results read like the rest of the suite.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use td_graph::NodeId;
use td_local::{ChurnSim, Inbox, NodeInit, Outbox, Protocol, RoundCtx, Simulator, Status};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Gossip until the horizon given as the node input. Neither `round` nor
/// the message type allocates, so every allocation of a run happens in the
/// simulator's setup/teardown.
struct Gossip {
    horizon: u32,
    acc: u64,
}

impl Protocol for Gossip {
    type Input = u32;
    type Message = u64;
    type Output = u64;

    fn init(node: NodeInit<'_, u32>) -> Self {
        Gossip {
            horizon: *node.input,
            acc: 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(node.id.0 as u64 + 1),
        }
    }

    fn round(
        &mut self,
        ctx: &RoundCtx,
        inbox: &Inbox<'_, u64>,
        outbox: &mut Outbox<'_, '_, u64>,
    ) -> Status {
        for (_, &m) in inbox.iter() {
            self.acc ^= m.rotate_left(7);
        }
        outbox.broadcast(self.acc);
        if ctx.round >= u64::from(self.horizon) {
            Status::Halt
        } else {
            Status::Continue
        }
    }

    fn finish(self) -> u64 {
        self.acc
    }
}

fn allocs_during(sim: &Simulator, g: &td_graph::CsrGraph, horizon: u32) -> u64 {
    let inputs = vec![horizon; g.num_nodes()];
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = sim.run::<Gossip>(g, &inputs);
    let after = ALLOCS.load(Ordering::Relaxed);
    // The halting round itself is counted, hence horizon + 1.
    assert_eq!(out.rounds, horizon + 1);
    after - before
}

fn ring(n: usize) -> td_graph::CsrGraph {
    let mut b = td_graph::GraphBuilder::new(n);
    for i in 0..n {
        b.add_edge(
            td_graph::NodeId::from(i),
            td_graph::NodeId::from((i + 1) % n),
        )
        .unwrap();
    }
    b.build().unwrap()
}

/// A run's allocation count must not depend on its round count.
fn allocations_are_round_count_independent(sim: &Simulator) {
    let g = ring(64);
    // Warm-up: fault in allocator/runtime one-time lazy paths.
    allocs_during(sim, &g, 4);
    let short = allocs_during(sim, &g, 8);
    let long = allocs_during(sim, &g, 256);
    assert_eq!(
        short, long,
        "round loop allocated: {short} allocs for 8 rounds vs {long} for 256"
    );
}

/// Floods the maximum value and quiesces as soon as nothing improves: on
/// a path, a repair woken at one end runs one round per node.
struct MaxFlood {
    best: u64,
    dirty: bool,
}

impl Protocol for MaxFlood {
    type Input = u64;
    type Message = u64;
    type Output = u64;

    fn init(node: NodeInit<'_, u64>) -> Self {
        MaxFlood {
            best: *node.input,
            dirty: false,
        }
    }

    fn round(
        &mut self,
        _ctx: &RoundCtx,
        inbox: &Inbox<'_, u64>,
        outbox: &mut Outbox<'_, '_, u64>,
    ) -> Status {
        for (_, &m) in inbox.iter() {
            if m > self.best {
                self.best = m;
                self.dirty = true;
            }
        }
        if self.dirty {
            self.dirty = false;
            outbox.broadcast(self.best);
        }
        Status::Halt
    }

    fn finish(self) -> u64 {
        self.best
    }
}

/// Allocations of one repair that floods a new maximum down a path of
/// `n` nodes; the sim is built and the repair woken outside the count.
fn repair_allocs(n: usize) -> u64 {
    let mut sim: ChurnSim<MaxFlood> = ChurnSim::new(td_graph::gen::classic::path(n), &vec![0; n]);
    sim.state_mut(NodeId(0)).best = 1;
    sim.state_mut(NodeId(0)).dirty = true;
    sim.wake(NodeId(0));
    let before = ALLOCS.load(Ordering::Relaxed);
    let stats = sim.run(1_000_000);
    let after = ALLOCS.load(Ordering::Relaxed);
    assert!(stats.completed);
    assert_eq!(
        stats.rounds as usize,
        n + 1,
        "one round per node plus the echo"
    );
    after - before
}

/// A churn repair's allocation count must not depend on its round count.
fn repair_allocations_are_round_count_independent() {
    repair_allocs(8);
    let counts: Vec<u64> = [16, 64, 256, 1024].map(repair_allocs).to_vec();
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "repair loop allocated per round: {counts:?} allocs for repairs of 17/65/257/1025 rounds"
    );
}

fn main() {
    let checks: [(&str, fn()); 3] = [
        ("sequential_allocations_are_round_count_independent", || {
            allocations_are_round_count_independent(&Simulator::sequential())
        }),
        ("dense_allocations_are_round_count_independent", || {
            allocations_are_round_count_independent(&Simulator::dense())
        }),
        (
            "churn_repair_allocations_are_round_count_independent",
            repair_allocations_are_round_count_independent,
        ),
    ];
    // The libtest command line in brief: `--list`, name filters (substring,
    // or whole name with `--exact`) and `--skip`; the values of libtest's
    // other valued flags are not taken for filters, other flags are ignored.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exact = args.iter().any(|a| a == "--exact");
    let (mut filters, mut skips) = (Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--skip" => skips.extend(it.next()),
            "--format" | "--color" | "--logfile" | "--test-threads" | "-Z" => {
                it.next();
            }
            f if !f.starts_with('-') => filters.push(f),
            _ => {}
        }
    }
    let matches = |name: &str, f: &str| if exact { name == f } else { name.contains(f) };
    let selected: Vec<_> = checks
        .into_iter()
        .filter(|(name, _)| {
            (filters.is_empty() || filters.iter().any(|f| matches(name, f)))
                && !skips.iter().any(|f| name.contains(f.as_str()))
        })
        .collect();
    if args.iter().any(|a| a == "--list") {
        for (name, _) in &selected {
            println!("{name}: test");
        }
        return;
    }
    let start = std::time::Instant::now();
    println!("\nrunning {} tests", selected.len());
    for (name, check) in &selected {
        // A failed check panics, which exits non-zero with its message.
        check();
        println!("test {name} ... ok");
    }
    println!(
        "\ntest result: ok. {} passed; 0 failed; 0 ignored; 0 measured; {} filtered out; \
         finished in {:.2}s\n",
        selected.len(),
        checks.len() - selected.len(),
        start.elapsed().as_secs_f64()
    );
}
