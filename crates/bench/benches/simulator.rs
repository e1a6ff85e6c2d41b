//! Criterion benches for the LOCAL-simulator hot loop (experiment E13 and
//! the message-plane arena): executor throughput on the real proposal
//! protocol, plus message-plane-bound microbenchmarks where per-node compute
//! is negligible and the timing is dominated by arena writes and inbox
//! stamp scans.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use td_bench::workloads::layered_game;
use td_core::{lockstep, proposal};
use td_local::{Inbox, NodeInit, Outbox, Protocol, RoundCtx, Simulator, Status};

fn bench_executors(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_simulator_executors");
    group.sample_size(10);
    // Mid-size instance: large enough that per-round work dominates
    // scheduling, small enough for quick iterations.
    let game = layered_game(8, 5, 42);
    group.bench_function("sequential", |b| {
        b.iter(|| proposal::run_on_simulator(&game, &Simulator::sequential()))
    });
    group.bench_function("sparse", |b| {
        b.iter(|| proposal::run_on_simulator(&game, &Simulator::sparse()))
    });
    group.bench_function("lockstep_fast_path", |b| b.iter(|| lockstep::run(&game)));
    group.finish();
}

fn bench_large_round_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_large_instance");
    group.sample_size(10);
    let mut rng = SmallRng::seed_from_u64(7);
    let game = td_core::TokenGame::random(&[30_000, 30_000, 30_000], 5, 0.5, &mut rng);
    group.bench_function("lockstep_90k_nodes", |b| b.iter(|| lockstep::run(&game)));
    group.finish();
}

/// Pure message-plane stress: every node broadcasts every round until a
/// fixed horizon and folds its inbox into an accumulator. Node compute is a
/// handful of xors, so wall time is dominated by the send path (arena
/// writes) and the receive path (stamp scans).
struct Gossip<M: Payload> {
    acc: M,
}

trait Payload: Clone + Send + Default + 'static {
    fn seed(id: u32) -> Self;
    fn fold(&mut self, other: &Self);
}

impl Payload for u64 {
    fn seed(id: u32) -> Self {
        0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id as u64 + 1)
    }
    fn fold(&mut self, other: &Self) {
        *self ^= other.rotate_left(7);
    }
}

/// A fat payload the size of the real protocol structs (4 words), to expose
/// the cost of moving message bytes through the arena.
#[derive(Clone, Copy, Default)]
struct FatMsg {
    words: [u64; 4],
}

impl Payload for FatMsg {
    fn seed(id: u32) -> Self {
        let mut words = [0u64; 4];
        for (i, w) in words.iter_mut().enumerate() {
            *w = u64::seed(id ^ (i as u32) << 8);
        }
        FatMsg { words }
    }
    fn fold(&mut self, other: &Self) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            u64::fold(a, b);
        }
    }
}

const GOSSIP_ROUNDS: u32 = 24;

impl<M: Payload> Protocol for Gossip<M> {
    type Input = ();
    type Message = M;
    type Output = M;

    fn init(node: NodeInit<'_, ()>) -> Self {
        Gossip {
            acc: M::seed(node.id.0),
        }
    }

    fn round(
        &mut self,
        ctx: &RoundCtx,
        inbox: &Inbox<'_, M>,
        outbox: &mut Outbox<'_, '_, M>,
    ) -> Status {
        for (_, m) in inbox.iter() {
            self.acc.fold(m);
        }
        outbox.broadcast(self.acc.clone());
        if ctx.round >= GOSSIP_ROUNDS {
            Status::Halt
        } else {
            Status::Continue
        }
    }

    fn finish(self) -> M {
        self.acc
    }
}

fn bench_message_plane(c: &mut Criterion) {
    let mut group = c.benchmark_group("message_plane");
    group.sample_size(10);
    let mut rng = SmallRng::seed_from_u64(99);
    let g = td_graph::gen::random::gnm(10_000, 40_000, &mut rng);
    let inputs = vec![(); g.num_nodes()];
    group.bench_function("gossip_u64_seq", |b| {
        b.iter(|| Simulator::sequential().run::<Gossip<u64>>(&g, &inputs))
    });
    group.bench_function("gossip_u64_sparse", |b| {
        b.iter(|| Simulator::sparse().run::<Gossip<u64>>(&g, &inputs))
    });
    group.bench_function("gossip_fat_seq", |b| {
        b.iter(|| Simulator::sequential().run::<Gossip<FatMsg>>(&g, &inputs))
    });
    // Sparse delivery: the same graph, but only node 0 ever sends. Receivers
    // still scan their stamp rows every round, so this isolates the
    // miss path of the inbox.
    let sparse_inputs: Vec<bool> = (0..g.num_nodes()).map(|v| v == 0).collect();
    group.bench_function("sparse_seq", |b| {
        b.iter(|| Simulator::sequential().run::<SparseBeacon>(&g, &sparse_inputs))
    });
    group.finish();
}

/// Only the beacon node sends; everyone else scans empty inboxes for a
/// fixed horizon. Exercises the stamp-miss path.
struct SparseBeacon {
    beacon: bool,
    heard: u64,
}

impl Protocol for SparseBeacon {
    type Input = bool;
    type Message = u64;
    type Output = u64;

    fn init(node: NodeInit<'_, bool>) -> Self {
        SparseBeacon {
            beacon: *node.input,
            heard: 0,
        }
    }

    fn round(
        &mut self,
        ctx: &RoundCtx,
        inbox: &Inbox<'_, u64>,
        outbox: &mut Outbox<'_, '_, u64>,
    ) -> Status {
        for (_, &m) in inbox.iter() {
            self.heard = self.heard.wrapping_add(m);
        }
        if self.beacon {
            outbox.broadcast(ctx.round as u64 + 1);
        }
        if ctx.round >= GOSSIP_ROUNDS {
            Status::Halt
        } else {
            Status::Continue
        }
    }

    fn finish(self) -> u64 {
        self.heard
    }
}

criterion_group!(
    benches,
    bench_executors,
    bench_large_round_throughput,
    bench_message_plane
);
criterion_main!(benches);
