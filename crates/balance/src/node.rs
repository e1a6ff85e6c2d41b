//! The shared node program behind every competing balancer.
//!
//! All three balancers ([`Rule::TokenDrop`], [`Rule::Rotor`],
//! [`Rule::Matching`]) are the *same* message-driven propose/accept/commit
//! dynamics on the wake-based executor — they differ only in how an active
//! node picks the neighbor to shed tokens toward, and in how many tokens an
//! accepted transfer moves. Rounds are grouped into 3-phase cycles:
//!
//! * **phase 0 (propose)** — nodes refresh cached neighbor loads from
//!   incoming `Load` messages; every *active-role* node with an eligible
//!   neighbor (cached gap ≥ 2, neighbor passive-role this cycle) proposes a
//!   transfer to the one neighbor its rule selects, carrying its true load;
//! * **phase 1 (accept)** — every passive-role node grants the best valid
//!   proposal (re-validated against its own true load: gap ≥ 2), commits
//!   its side of the transfer of `k` tokens, and replies `Accept{k}`;
//! * **phase 2 (commit)** — a granted proposer commits its side; both
//!   endpoints broadcast their new loads, waking exactly the neighborhood
//!   that must re-check eligibility.
//!
//! Roles reuse the derandomized schedule of the token-dropping stack
//! ([`split_role`]): bit `(cycle/2) mod ceil(log2 n)` of the id with
//! alternating polarity, so any two distinct ids take opposite roles in
//! some cycle of every `2·ceil(log2 n)`-cycle window. Accepted transfers
//! are acceptor-disjoint within a cycle, each strictly decreases the
//! Σ load² potential by `2k(gap − k) ≥ 2`, and loads only move from
//! strictly heavier to strictly lighter nodes — so the dynamics terminate,
//! and quiescence implies every cached load is exact and every edge has
//! gap ≤ 1.
//!
//! Everything is a pure function of `(id, seed, round)`: the rotor pointer
//! is deterministic state, and the matching rule draws from a seeded hash
//! of `(seed, cycle mod 2·bits, id)`, so runs are bit-reproducible on every
//! executor.

use td_graph::Port;
use td_local::churn::split_role;
use td_local::{Inbox, NodeInit, Outbox, Protocol, RoundCtx, Status};

/// Rounds per propose/accept/commit cycle.
const PHASES: u64 = 3;

/// How an active node picks its transfer target, and how many tokens an
/// accepted transfer moves. This is the only point where the competing
/// balancers differ; the message plane, role schedule, and verification are
/// shared.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Rule {
    /// The paper's token dropping, lifted to node loads: steepest descent —
    /// propose to the eligible neighbor with the largest cached gap (ties
    /// toward the smaller id), move one token per accepted transfer.
    #[default]
    TokenDrop,
    /// Friedrich–Gairing–Sauerwald-style quasirandom rotor-router: each node
    /// keeps a rotor pointer into its port list and proposes to the first
    /// eligible neighbor at or after the pointer, then advances the pointer
    /// past it. Moves one token per accepted transfer.
    Rotor,
    /// Berenbrink-style randomized matching exchange, derandomized by a
    /// seeded hash: the active endpoint picks a pseudorandom eligible
    /// neighbor, and an accepted transfer averages the pair — `⌊gap/2⌋`
    /// tokens move toward the lighter endpoint.
    Matching,
}

impl Rule {
    /// Protocol name as used by the CLI and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::TokenDrop => "token-drop",
            Rule::Rotor => "rotor-router",
            Rule::Matching => "matching",
        }
    }

    /// Tokens moved by an accepted transfer across a (re-validated) gap.
    #[inline]
    fn quantum(self, gap: u32) -> u32 {
        debug_assert!(gap >= 2);
        match self {
            Rule::TokenDrop | Rule::Rotor => 1,
            Rule::Matching => gap / 2,
        }
    }
}

/// Message kinds of the balancing protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum MsgKind {
    /// Unused slot filler (never observed as a delivered message).
    #[default]
    None,
    /// "My load is now `load`" — cache refresh, wakes the receiver.
    Load,
    /// "Take `quantum(gap)` of my tokens; my load is `load`."
    Propose,
    /// "Transfer of `k` tokens granted; my load is now `load`."
    Accept,
}

/// One balancing-protocol message.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BalanceMsg {
    kind: MsgKind,
    load: u32,
    k: u32,
}

/// Host-provided per-node input: the node's converged view of the load
/// vector (its own load and its neighbors' loads), plus the rule and seed.
#[derive(Clone, Debug)]
pub struct BalanceInput {
    /// Which balancer this node runs.
    pub rule: Rule,
    /// Run seed (only the matching rule consumes it).
    pub seed: u64,
    /// My current token count.
    pub load: u32,
    /// Cached loads of my neighbors, by port.
    pub nbr_load: Vec<u32>,
    /// If set, broadcast my load on the first step (the host perturbed my
    /// state and my neighbors' caches are stale).
    pub announce: bool,
    /// Identifier bits of the role schedule (`ceil(log2 n)`).
    pub id_bits: u32,
}

/// Node state of the shared balancing protocol.
pub struct BalanceNode {
    id: u32,
    id_bits: u32,
    rule: Rule,
    seed: u64,
    nbr_ids: Vec<u32>,
    pub(crate) load: u32,
    pub(crate) nbr_load: Vec<u32>,
    pub(crate) announce: bool,
    /// Rotor pointer: the port where the next eligibility scan starts.
    rotor: usize,
    /// Port of my outstanding proposal this cycle.
    proposed: Option<Port>,
    /// I granted a transfer this cycle and must broadcast my new load.
    committed: bool,
    /// Tokens this node received via accepted transfers (for the host's
    /// conservation/throughput accounting).
    pub(crate) moves: u64,
    /// Σ load² potential drop this node accounted as acceptor: each granted
    /// transfer of `k` tokens across a true gap `g` drops the potential by
    /// exactly `2k(g − k)`.
    pub(crate) pot_drop: u64,
}

/// splitmix64-style finalizer: the seeded draw of the matching rule.
#[inline]
fn mix(seed: u64, slot: u32, id: u32) -> u64 {
    let mut z = seed ^ ((slot as u64) << 32 | id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl BalanceNode {
    /// True if the neighbor on `port` is a valid transfer target this cycle:
    /// cached gap ≥ 2 and the neighbor holds the passive role.
    #[inline]
    fn eligible(&self, port: usize, cycle: u64) -> bool {
        self.load >= self.nbr_load[port] + 2 && !split_role(self.nbr_ids[port], cycle, self.id_bits)
    }

    /// True if any incident edge has cached gap ≥ 2 in my favor — I still
    /// have shedding to attempt in some future cycle.
    fn any_heavy(&self) -> bool {
        (0..self.nbr_load.len()).any(|p| self.load >= self.nbr_load[p] + 2)
    }

    /// The rule-specific target choice among eligible ports, or `None`.
    fn pick_target(&mut self, cycle: u64) -> Option<Port> {
        let deg = self.nbr_load.len();
        match self.rule {
            Rule::TokenDrop => {
                // Steepest descent: largest cached gap, ties toward the
                // smaller neighbor id.
                let mut best: Option<(u32, u32, usize)> = None;
                for p in 0..deg {
                    if !self.eligible(p, cycle) {
                        continue;
                    }
                    let gap = self.load - self.nbr_load[p];
                    let nbr = self.nbr_ids[p];
                    if best.is_none_or(|(bg, bn, _)| gap > bg || (gap == bg && nbr < bn)) {
                        best = Some((gap, nbr, p));
                    }
                }
                best.map(|(_, _, p)| Port::from(p))
            }
            Rule::Rotor => {
                // First eligible port at or after the rotor pointer; the
                // pointer then moves just past the chosen port, so repeated
                // shedding round-robins the neighborhood.
                for off in 0..deg {
                    let p = (self.rotor + off) % deg;
                    if self.eligible(p, cycle) {
                        self.rotor = (p + 1) % deg;
                        return Some(Port::from(p));
                    }
                }
                None
            }
            Rule::Matching => {
                // Seeded pseudorandom pick among the eligible ports. The
                // draw depends on the cycle only through `cycle mod 2·bits`,
                // the role schedule's window: that is how the draws the
                // `td compare` golden pins are defined.
                let elig: Vec<usize> = (0..deg).filter(|&p| self.eligible(p, cycle)).collect();
                if elig.is_empty() {
                    return None;
                }
                let slot = (cycle % u64::from(2 * self.id_bits.max(1))) as u32;
                let h = mix(self.seed, slot, self.id);
                Some(Port::from(elig[(h % elig.len() as u64) as usize]))
            }
        }
    }

    fn refresh_caches(&mut self, inbox: &Inbox<'_, BalanceMsg>) {
        for (p, m) in inbox.iter() {
            // Proposals and accepts double as load carriers: the sender
            // overwrote its broadcast slot on this port, so take the load
            // from any of them.
            if m.kind != MsgKind::None {
                self.nbr_load[p.idx()] = m.load;
            }
        }
    }

    #[inline]
    fn status(&self) -> Status {
        if self.proposed.is_some() || self.committed || self.any_heavy() {
            Status::Continue
        } else {
            Status::Halt
        }
    }
}

impl Protocol for BalanceNode {
    type Input = BalanceInput;
    type Message = BalanceMsg;
    type Output = (u32, u64, u64);

    fn init(node: NodeInit<'_, BalanceInput>) -> Self {
        debug_assert_eq!(node.input.nbr_load.len(), node.degree());
        BalanceNode {
            id: node.id.0,
            id_bits: node.input.id_bits,
            rule: node.input.rule,
            seed: node.input.seed,
            nbr_ids: node.neighbor_ids.to_vec(),
            load: node.input.load,
            nbr_load: node.input.nbr_load.clone(),
            announce: node.input.announce,
            rotor: 0,
            proposed: None,
            committed: false,
            moves: 0,
            pot_drop: 0,
        }
    }

    fn round(
        &mut self,
        ctx: &RoundCtx,
        inbox: &Inbox<'_, BalanceMsg>,
        outbox: &mut Outbox<'_, '_, BalanceMsg>,
    ) -> Status {
        let phase = ctx.round % PHASES;
        let cycle = ctx.round / PHASES;
        // Housekeeping that is phase-independent: repairs may start at any
        // phase (the round counter persists across events), so cache
        // refreshes and host-requested announcements must not wait for the
        // next cycle boundary.
        self.refresh_caches(inbox);
        if self.announce {
            self.announce = false;
            outbox.broadcast(BalanceMsg {
                kind: MsgKind::Load,
                load: self.load,
                k: 0,
            });
        }
        match phase {
            0 => {
                self.proposed = None;
                if split_role(self.id, cycle, self.id_bits) {
                    if let Some(p) = self.pick_target(cycle) {
                        outbox.send(
                            p,
                            BalanceMsg {
                                kind: MsgKind::Propose,
                                load: self.load,
                                k: 0,
                            },
                        );
                        self.proposed = Some(p);
                    }
                }
                self.status()
            }
            1 => {
                // Passive side: grant the best valid proposal, re-validated
                // against my own true load (the proposer's true load minus
                // mine must still be ≥ 2). At most one grant per cycle, so
                // grants are acceptor-disjoint and the re-validated gap is
                // exact on both sides.
                let mut best: Option<(u32, u32, Port)> = None;
                for (p, m) in inbox.iter() {
                    if m.kind != MsgKind::Propose || m.load < self.load + 2 {
                        continue;
                    }
                    let gap = m.load - self.load;
                    let proposer = self.nbr_ids[p.idx()];
                    if best.is_none_or(|(bg, bp, _)| gap > bg || (gap == bg && proposer < bp)) {
                        best = Some((gap, proposer, p));
                    }
                }
                if let Some((gap, _, p)) = best {
                    let k = self.rule.quantum(gap);
                    debug_assert!(k >= 1 && k < gap);
                    // Commit my side; the proposer decrements itself on
                    // receiving the accept.
                    self.pot_drop += 2 * k as u64 * (gap - k) as u64;
                    self.moves += k as u64;
                    let proposer_after = self.load + gap - k;
                    self.load += k;
                    self.nbr_load[p.idx()] = proposer_after;
                    outbox.send(
                        p,
                        BalanceMsg {
                            kind: MsgKind::Accept,
                            load: self.load,
                            k,
                        },
                    );
                    self.committed = true;
                }
                self.status()
            }
            _ => {
                if let Some(p) = self.proposed.take() {
                    if let Some(m) = inbox.get(p) {
                        if m.kind == MsgKind::Accept {
                            // Proposer side of the transfer: shed k tokens.
                            self.load -= m.k;
                            self.nbr_load[p.idx()] = m.load;
                            outbox.broadcast(BalanceMsg {
                                kind: MsgKind::Load,
                                load: self.load,
                                k: 0,
                            });
                        }
                    }
                }
                if self.committed {
                    self.committed = false;
                    outbox.broadcast(BalanceMsg {
                        kind: MsgKind::Load,
                        load: self.load,
                        k: 0,
                    });
                }
                self.status()
            }
        }
    }

    /// Final `(load, moves, pot_drop)` snapshot.
    fn finish(self) -> (u32, u64, u64) {
        (self.load, self.moves, self.pot_drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantum_moves_at_least_one_and_strictly_reduces() {
        for rule in [Rule::TokenDrop, Rule::Rotor, Rule::Matching] {
            for gap in 2..40 {
                let k = rule.quantum(gap);
                assert!(k >= 1, "{}: k={k} gap={gap}", rule.name());
                assert!(k < gap, "{}: k={k} gap={gap}", rule.name());
                // Potential drop 2k(gap-k) ≥ 2.
                assert!(2 * k * (gap - k) >= 2);
            }
        }
    }

    #[test]
    fn mix_is_deterministic_and_spreads() {
        let a = mix(7, 3, 11);
        assert_eq!(a, mix(7, 3, 11));
        assert_ne!(a, mix(7, 3, 12));
        assert_ne!(a, mix(7, 4, 11));
        assert_ne!(a, mix(8, 3, 11));
    }

    #[test]
    fn rule_names_are_stable() {
        assert_eq!(Rule::TokenDrop.name(), "token-drop");
        assert_eq!(Rule::Rotor.name(), "rotor-router");
        assert_eq!(Rule::Matching.name(), "matching");
    }
}
