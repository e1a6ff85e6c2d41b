//! The *fully distributed* stable assignment protocol: Section 7 end to end
//! on the LOCAL simulator.
//!
//! The network is the bipartite customer/server graph itself. Customers act
//! as the paper's hyperedges: all game structure (badness, head, children)
//! is computed by the customer from its servers' loads, and every
//! server-to-server hop of the hypergraph token dropping game is relayed
//! through the connecting customer. One game round therefore takes **4
//! communication rounds** (status down, relay down, request up, forward
//! up), and phases are synchronized by known-(C,S) budgets — the explicit
//! constants behind Theorem 7.3's O(C·S⁴) (and Theorem 7.5's O(C·S²) when
//! `k = 2` shrinks the per-phase game to 3 levels).
//!
//! ## Phase schedule (`phase_len = 2 + 4·(T+1)` communication rounds)
//!
//! | in-phase round | direction | action |
//! |---|---|---|
//! | 0 | S→C | servers recount loads from head announcements, broadcast |
//! | 1 | C→S | unassigned customers propose to the min-(viewed-)load server; assigned customers fix their in-game role (badness exactly 1) |
//! | block `b`: 2+4b | S→C | servers decide accepts (b = 0) / grants (b ≥ 1), broadcast occupancy |
//! | 3+4b | C→S | customers relay head occupancy to child servers; relay grants (re-heading themselves); in the last block, announce final heads |
//! | 4+4b | S→C | unoccupied servers request via their best (head, customer) option |
//! | 5+4b | C→S | customers forward requests (with child ids) to their heads |
//!
//! The move sequence equals [`crate::phases`]'s lockstep driver exactly
//! (same tie-breaking, same current-knowledge semantics); tests pin the
//! final assignments to each other.
//!
//! ## Port state
//!
//! What a node knows per port (a server's relayed option, a customer's view
//! of the server's load and whether it is a child this phase) lives in its
//! row of the simulator's port slab ([`td_local::PortProtocol`]). The node
//! state keeps one heap buffer: its outgoing messages, because an
//! [`AssignMsg`] carries a `Vec` of forwarded requests.

use crate::assignment::Assignment;
use crate::instance::AssignmentInstance;
use td_graph::{CsrGraph, Port};
use td_local::{Inbox, NodeInit, Outbox, PortProtocol, RoundCtx, Simulator, Status};

/// Node role in the bipartite network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// A customer (hyperedge): will choose exactly one server.
    Customer,
    /// A server: accumulates load.
    Server,
}

/// Per-node input.
#[derive(Clone, Copy, Debug)]
pub struct AssignInput {
    /// This node's role.
    pub role: Role,
    /// Global maximum customer degree C (for the phase budget).
    pub c_max: u32,
    /// Global maximum server degree S (for the round budgets).
    pub s_max: u32,
    /// `Some(k)`: solve the k-bounded problem on effective loads.
    pub k: Option<u32>,
}

/// Protocol message (unbounded, as the LOCAL model allows: the forwarded
/// request list can hold up to S child ids).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct AssignMsg {
    /// S→C: my current load (phase start).
    pub load: Option<u32>,
    /// C→S: proposal by an unassigned customer.
    pub propose: bool,
    /// S→C: your proposal is accepted (you are assigned to me).
    pub accept: bool,
    /// S→C: my occupancy (every game block).
    pub occupied: Option<bool>,
    /// C→S (to child servers): "I am an in-game hyperedge; my head is
    /// `(head_id, head_occupied)`".
    pub option: Option<(u32, bool)>,
    /// S→C: I request the token through you.
    pub request: bool,
    /// C→S (to the head): forwarded requests — ids of requesting children.
    pub fwd_requests: Vec<u32>,
    /// S→C (to the relaying customer): grant to child `id`.
    pub grant_to: Option<u32>,
    /// C→S (to the granted child): the token arrives; I re-head onto you.
    pub grant_relay: bool,
    /// C→S: final head announcement (one per phase, to the head).
    pub head_announce: bool,
}

/// Token dropping budget in game rounds per phase, computed in u64 and
/// saturating at `u64::MAX`.
pub fn td_budget(s_max: u32, k: Option<u32>) -> u64 {
    let s = u64::from(s_max);
    match k {
        // 3-level games: Theorem 7.5 / Theorem 4.7-style O(S).
        Some(2) => 4 * s + 8,
        // General: Theorem 7.1, O(L·S²) with L ≤ S.
        _ => s
            .saturating_mul(s)
            .saturating_mul(s)
            .saturating_mul(2)
            .saturating_add(2 * s + 8),
    }
}

/// Phase budget (Lemma 7.2 with its explicit constant), in u64 and
/// saturating.
pub fn phase_budget(c_max: u32, s_max: u32) -> u64 {
    (u64::from(c_max) * u64::from(s_max))
        .saturating_mul(2)
        .saturating_add(2)
}

/// Communication rounds per phase, in u64 and saturating.
pub fn phase_len(s_max: u32, k: Option<u32>) -> u64 {
    td_budget(s_max, k)
        .saturating_add(1)
        .saturating_mul(4)
        .saturating_add(2)
}

/// Total communication rounds — the explicit O(C·S⁴) (or O(C·S²) for k=2):
/// `phase_budget · phase_len`, in u64 and saturating.
pub fn total_rounds(c_max: u32, s_max: u32, k: Option<u32>) -> u64 {
    phase_budget(c_max, s_max).saturating_mul(phase_len(s_max, k))
}

/// The simulator round cap of a distributed run at maximum customer degree
/// `c_max` and maximum server degree `s_max`: the protocol's budget plus 16
/// rounds of slack. Fails with a diagnostic naming C, S, k and the budget
/// when the cap does not fit the simulator's u32 round counter (for the
/// exact protocol with C = 1, from S = 128 on).
pub fn round_cap(c_max: u32, s_max: u32, k: Option<u32>) -> Result<u32, String> {
    let budget = total_rounds(c_max, s_max, k);
    budget
        .checked_add(16)
        .and_then(|cap| u32::try_from(cap).ok())
        .ok_or_else(|| {
            let problem = match k {
                Some(k) => format!("the {k}-bounded protocol"),
                None => "the exact protocol".to_string(),
            };
            format!(
                "C = {c_max}, S = {s_max} needs a budget of {budget} rounds for {problem}, \
                 more than the u32 round counter holds"
            )
        })
}

/// Node state.
pub struct AssignNode {
    role: Role,
    id: u32,
    k: Option<u32>,
    phase_len: u64,
    total_phases: u64,
    out_buf: Vec<AssignMsg>,

    // ---- server state ----
    load: u32,
    next_load: u32,
    occupied: bool,

    // ---- customer state ----
    head_port: Option<u32>,
    in_game: bool,
    consumed: bool,
}

/// One port's state, the node's entry for it in the port slab. Its
/// `Default` is the state every port starts in.
#[derive(Clone, Copy, Debug, Default)]
pub struct AssignPort {
    /// Server: the in-game option relayed through this customer this block,
    /// if any. Customer: the server's `(id, occupancy)`, if it announced
    /// its occupancy.
    option: Option<(u32, bool)>,
    /// Customer: the server's load as last announced.
    server_load: u32,
    /// Customer: the server is a child of my in-game hyperedge this phase.
    child: bool,
}

impl AssignNode {
    fn view(&self, load: u32) -> u32 {
        match self.k {
            None => load,
            Some(k) => load.min(k),
        }
    }
}

/// Per-node output.
#[derive(Clone, Copy, Debug)]
pub enum AssignOutput {
    /// Customer: the port of the chosen server.
    Customer {
        /// Chosen server's port.
        head_port: Option<u32>,
    },
    /// Server: final load.
    Server {
        /// Final load.
        load: u32,
    },
}

impl PortProtocol for AssignNode {
    type Input = AssignInput;
    type Message = AssignMsg;
    type Output = AssignOutput;
    type Port = AssignPort;

    fn init(node: NodeInit<'_, AssignInput>, _: &mut [AssignPort]) -> Self {
        let deg = node.neighbor_ids.len();
        let AssignInput {
            c_max, s_max, k, ..
        } = *node.input;
        AssignNode {
            role: node.input.role,
            id: node.id.0,
            k,
            phase_len: phase_len(s_max, k),
            total_phases: phase_budget(c_max, s_max),
            out_buf: vec![AssignMsg::default(); deg],
            load: 0,
            next_load: 0,
            occupied: false,
            head_port: None,
            in_game: false,
            consumed: false,
        }
    }

    fn round(
        &mut self,
        ctx: &RoundCtx,
        ports: &mut [AssignPort],
        inbox: &Inbox<'_, AssignMsg>,
        outbox: &mut Outbox<'_, '_, AssignMsg>,
    ) -> Status {
        let s = self;
        let nbrs = outbox.neighbor_ids();
        let deg = ports.len();
        if deg == 0 {
            return Status::Halt;
        }
        let r_in = ctx.round % s.phase_len;
        let phase = ctx.round / s.phase_len;

        // ---- Process the inbox.
        let mut proposals: Vec<usize> = Vec::new();
        let mut fwd: Vec<(u32, usize)> = Vec::new(); // (child id, via port)
        let mut granted_via: Option<(usize, u32)> = None; // customer: port->child
        let mut accepted_on: Option<usize> = None;
        for (port, msg) in inbox.iter() {
            let pi = port.idx();
            if let Some(l) = msg.load {
                ports[pi].server_load = l;
            }
            if msg.propose {
                proposals.push(pi);
            }
            if msg.accept {
                accepted_on = Some(pi);
            }
            if let Some(o) = msg.occupied {
                // Customer records its head's occupancy (only meaningful for
                // the head port; harmless otherwise).
                if s.role == Role::Customer {
                    ports[pi].option = Some((nbrs[pi], o));
                }
            }
            if let Some(opt) = msg.option {
                // Server records an in-game option available via this port.
                ports[pi].option = Some(opt);
            }
            if msg.request {
                fwd.push((nbrs[pi], pi));
            }
            for &child in &msg.fwd_requests {
                fwd.push((child, pi));
            }
            if let Some(child) = msg.grant_to {
                debug_assert!(s.role == Role::Customer);
                granted_via = Some((pi, child));
            }
            if msg.grant_relay {
                debug_assert!(s.role == Role::Server && !s.occupied);
                s.occupied = true;
            }
            if msg.head_announce {
                s.next_load += 1;
            }
        }

        // ---- Act.
        for m in s.out_buf.iter_mut() {
            *m = AssignMsg::default();
        }
        let blocks = (s.phase_len - 2) / 4;
        if r_in == 0 {
            if s.role == Role::Server {
                s.load = s.next_load;
                s.next_load = 0;
                s.occupied = false;
                for m in s.out_buf.iter_mut() {
                    m.load = Some(s.load);
                }
            }
            // Customers: reset phase-local state.
            s.in_game = false;
            s.consumed = false;
            for p in ports.iter_mut() {
                p.option = None;
                p.child = false;
            }
        } else if r_in == 1 {
            if s.role == Role::Customer {
                if let Some(hp) = s.head_port.filter(|_| deg >= 2) {
                    // Fix the in-game role for this phase: viewed badness
                    // exactly 1.
                    let hp = hp as usize;
                    let head_level = s.view(ports[hp].server_load);
                    let min_other = (0..deg)
                        .filter(|&i| i != hp)
                        .map(|i| s.view(ports[i].server_load))
                        .min()
                        .unwrap();
                    if head_level as i64 - min_other as i64 == 1 {
                        s.in_game = true;
                        for (i, p) in ports.iter_mut().enumerate() {
                            p.child = i != hp && s.view(p.server_load) + 1 == head_level;
                        }
                    }
                } else if s.head_port.is_none() {
                    // Propose to the min-(viewed-load, id) server.
                    let mut best: Option<usize> = None;
                    for i in 0..deg {
                        let key = (s.view(ports[i].server_load), nbrs[i]);
                        if best.is_none_or(|b: usize| key < (s.view(ports[b].server_load), nbrs[b]))
                        {
                            best = Some(i);
                        }
                    }
                    if let Some(i) = best {
                        s.out_buf[i].propose = true;
                    }
                }
            }
        } else {
            let b = (r_in - 2) / 4;
            let sub = (r_in - 2) % 4;
            match (s.role, sub) {
                (Role::Server, 0) => {
                    // cr1: accepts (block 0) / grants (blocks >= 1), plus
                    // occupancy broadcast.
                    if b == 0 {
                        if let Some(&pi) = proposals.iter().min_by_key(|&&pi| nbrs[pi]) {
                            s.out_buf[pi].accept = true;
                            s.occupied = true;
                        }
                    } else if s.occupied {
                        // Grant to the smallest (child id, customer id).
                        if let Some(&(child, via)) =
                            fwd.iter().min_by_key(|&&(child, via)| (child, nbrs[via]))
                        {
                            s.out_buf[via].grant_to = Some(child);
                            s.occupied = false;
                        }
                    }
                    for m in s.out_buf.iter_mut() {
                        m.occupied = Some(s.occupied);
                    }
                }
                (Role::Customer, 1) => {
                    // cr2: relay grant (re-head) and head status to children.
                    if let Some((from_port, child)) = granted_via {
                        debug_assert_eq!(Some(from_port as u32), s.head_port);
                        debug_assert!(s.in_game && !s.consumed);
                        let child_port = (0..deg)
                            .find(|&i| nbrs[i] == child)
                            .expect("granted child is a neighbor");
                        s.out_buf[child_port].grant_relay = true;
                        s.head_port = Some(child_port as u32);
                        s.consumed = true;
                    }
                    if s.in_game && !s.consumed {
                        let hp = s.head_port.unwrap() as usize;
                        let head_occ = ports[hp].option.map(|(_, o)| o).unwrap_or(false);
                        let head_id = nbrs[hp];
                        for (cp, _) in ports.iter().enumerate().filter(|(_, p)| p.child) {
                            s.out_buf[cp].option = Some((head_id, head_occ));
                        }
                    }
                    // Final block: announce the head for the load recount.
                    if b == blocks - 1 {
                        if let Some(hp) = s.head_port {
                            s.out_buf[hp as usize].head_announce = true;
                        }
                    }
                }
                (Role::Server, 2) => {
                    // cr3: request via the best (head id, customer id) option.
                    if !s.occupied && b < blocks - 1 {
                        let mut best: Option<usize> = None;
                        for i in 0..deg {
                            let Some((head, occ)) = ports[i].option else {
                                continue;
                            };
                            if !occ {
                                continue;
                            }
                            let key = (head, nbrs[i]);
                            if best.is_none_or(|bi: usize| {
                                let (bh, _) = ports[bi].option.unwrap();
                                key < (bh, nbrs[bi])
                            }) {
                                best = Some(i);
                            }
                        }
                        if let Some(i) = best {
                            s.out_buf[i].request = true;
                        }
                    }
                    // Options are per-block; clear after use.
                    for p in ports.iter_mut() {
                        p.option = None;
                    }
                }
                (Role::Customer, 3) => {
                    // cr4: forward requests to the head.
                    if s.in_game && !s.consumed && !fwd.is_empty() {
                        let hp = s.head_port.unwrap() as usize;
                        let mut children: Vec<u32> = fwd.iter().map(|&(child, _)| child).collect();
                        children.sort_unstable();
                        s.out_buf[hp].fwd_requests = children;
                    }
                }
                _ => {
                    // Idle sub-round for this role.
                    if s.role == Role::Customer && accepted_on.is_some() {
                        // (accept arrives at customer in sub 1 — handled
                        // below, outside the match, to keep it role-agnostic)
                    }
                }
            }
            // Accept arrival (customer, cr2 of block 0).
            if let Some(pi) = accepted_on {
                debug_assert!(s.role == Role::Customer && s.head_port.is_none());
                s.head_port = Some(pi as u32);
            }
        }

        // ---- Flush and phase end.
        for (i, m) in s.out_buf.iter().enumerate() {
            if *m != AssignMsg::default() {
                outbox.send(Port::from(i), m.clone());
            }
        }
        if r_in == s.phase_len - 1 && phase + 1 >= s.total_phases {
            debug_assert!(
                s.role == Role::Server || s.head_port.is_some(),
                "customer v{} unassigned after the Lemma 7.2 phase budget",
                s.id
            );
            return Status::Halt;
        }
        Status::Continue
    }

    fn finish(self, _: &[AssignPort]) -> AssignOutput {
        match self.role {
            Role::Customer => AssignOutput::Customer {
                head_port: self.head_port,
            },
            Role::Server => AssignOutput::Server {
                load: self.next_load,
            },
        }
    }
}

/// Result of the distributed assignment protocol.
#[derive(Clone, Debug)]
pub struct DistributedAssignResult {
    /// The assembled assignment.
    pub assignment: Assignment,
    /// Communication rounds until all nodes halted.
    pub comm_rounds: u32,
    /// Messages sent.
    pub messages: u64,
    /// Low-level executor work counters (perf telemetry plane).
    pub perf: td_local::ExecPerf,
    /// Per-round statistics, when the simulator had tracing enabled.
    pub trace: Option<Vec<td_local::RoundStats>>,
}

impl td_local::Summarize for DistributedAssignResult {
    fn summary(&self) -> td_local::RunSummary {
        td_local::RunSummary {
            rounds: self.comm_rounds,
            messages: self.messages,
        }
    }
}

/// Runs the distributed protocol on the bipartite graph of `inst`
/// (customers are nodes `0..nc`, servers `nc..nc+ns`) and assembles the
/// assignment. `k = None` solves the exact problem (Theorem 7.3);
/// `k = Some(κ)` the κ-bounded one (Theorem 7.5 for κ = 2).
///
/// # Panics
/// With [`round_cap`]'s diagnostic when the round budget does not fit the
/// simulator's u32 round counter.
pub fn run_distributed_assignment(
    inst: &AssignmentInstance,
    k: Option<u32>,
    sim: &Simulator,
) -> DistributedAssignResult {
    let nc = inst.num_customers();
    let ns = inst.num_servers();
    // Build the bipartite network.
    let mut b = td_graph::GraphBuilder::new(nc + ns);
    for c in 0..nc {
        for &srv in inst.servers_of(c) {
            b.add_edge(
                td_graph::NodeId::from(c),
                td_graph::NodeId::from(nc + srv as usize),
            )
            .unwrap();
        }
    }
    let g: CsrGraph = b.build().unwrap();
    let c_max = inst.max_customer_degree() as u32;
    let s_max = inst.max_server_degree() as u32;
    let inputs: Vec<AssignInput> = (0..nc + ns)
        .map(|v| AssignInput {
            role: if v < nc { Role::Customer } else { Role::Server },
            c_max,
            s_max,
            k,
        })
        .collect();
    let cap = round_cap(c_max, s_max, k).unwrap_or_else(|e| panic!("{e}"));
    let sim = sim.with_max_rounds(cap);
    let outcome = sim.run::<AssignNode>(&g, &inputs);
    assert!(
        outcome.completed,
        "distributed assignment hit the round cap"
    );

    let mut assignment = Assignment::unassigned(inst);
    for c in 0..nc {
        match outcome.outputs[c] {
            AssignOutput::Customer { head_port: Some(p) } => {
                let head = g.neighbors(td_graph::NodeId::from(c))[p as usize];
                assignment.assign(c, head - nc as u32);
            }
            AssignOutput::Customer { head_port: None } => panic!("customer {c} unassigned"),
            AssignOutput::Server { .. } => unreachable!(),
        }
    }
    DistributedAssignResult {
        assignment,
        comm_rounds: outcome.rounds,
        messages: outcome.messages,
        perf: outcome.perf,
        trace: outcome.trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded::solve_2_bounded;
    use crate::phases::solve_stable_assignment;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn tiny_instance_matches_lockstep() {
        let inst = AssignmentInstance::new(2, &[vec![0, 1], vec![0, 1], vec![0, 1]]);
        let dist = run_distributed_assignment(&inst, None, &Simulator::sequential());
        dist.assignment.verify_stable(&inst).unwrap();
        let lock = solve_stable_assignment(&inst);
        assert_eq!(dist.assignment, lock.assignment);
    }

    #[test]
    fn random_instances_match_lockstep() {
        let mut rng = SmallRng::seed_from_u64(2718);
        for trial in 0..3 {
            // Keep S small: the known-S budget is Θ(S³) rounds per phase.
            let inst = AssignmentInstance::random(8, 5, 2..=2, &mut rng);
            let dist = run_distributed_assignment(&inst, None, &Simulator::sequential());
            dist.assignment
                .verify_stable(&inst)
                .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            let lock = solve_stable_assignment(&inst);
            assert_eq!(dist.assignment, lock.assignment, "trial {trial}");
        }
    }

    #[test]
    fn bounded_variant_matches_lockstep() {
        let mut rng = SmallRng::seed_from_u64(2719);
        for trial in 0..3 {
            let inst = AssignmentInstance::random(10, 5, 2..=2, &mut rng);
            let dist = run_distributed_assignment(&inst, Some(2), &Simulator::sequential());
            dist.assignment
                .verify_k_bounded(&inst, 2)
                .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            let lock = solve_2_bounded(&inst);
            assert_eq!(dist.assignment, lock.assignment, "trial {trial}");
        }
    }

    #[test]
    fn distributed_assignment_matches_the_dense_oracle() {
        let mut rng = SmallRng::seed_from_u64(2720);
        let inst = AssignmentInstance::random(8, 4, 2..=2, &mut rng);
        let a = run_distributed_assignment(&inst, None, &Simulator::sequential());
        let b = run_distributed_assignment(&inst, None, &Simulator::dense());
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.comm_rounds, b.comm_rounds);
    }

    #[test]
    fn round_budgets_theorem_shapes() {
        // O(C·S⁴) exact vs O(C·S²) bounded: explicit budget formulas.
        for s in [2u32, 4, 8] {
            let exact = total_rounds(3, s, None);
            let bounded = total_rounds(3, s, Some(2));
            assert!(exact >= 3 * (s as u64).pow(4));
            assert!(bounded <= 3 * 64 * (s as u64).pow(2) + 4096);
            assert!(bounded < exact || s < 3);
        }
    }

    #[test]
    fn round_budget_is_exact_and_capped_at_the_u32_counter() {
        // Exact values from u128 arithmetic, saturated at u64::MAX.
        let sat = |x: Option<u128>| x.and_then(|x| u64::try_from(x).ok()).unwrap_or(u64::MAX);
        for s_max in [0u32, 1, 2, 127, 128, 813, 1024, 1 << 21, u32::MAX] {
            for c_max in [0u32, 1, 3, 1 << 20, u32::MAX] {
                for k in [None, Some(2), Some(3)] {
                    let (c, s) = (u128::from(c_max), u128::from(s_max));
                    let td = match k {
                        Some(2) => 4 * s + 8,
                        _ => 2 * s * s * s + 2 * s + 8,
                    };
                    let len = 4 * (td + 1) + 2;
                    let total = sat((2 * c * s + 2).checked_mul(len));
                    let case = format!("C = {c_max}, S = {s_max}, k = {k:?}");
                    assert_eq!(td_budget(s_max, k), sat(Some(td)), "{case}");
                    assert_eq!(phase_len(s_max, k), sat(Some(len)), "{case}");
                    assert_eq!(
                        phase_budget(c_max, s_max),
                        sat(Some(2 * c * s + 2)),
                        "{case}"
                    );
                    assert_eq!(total_rounds(c_max, s_max, k), total, "{case}");
                    assert_eq!(
                        round_cap(c_max, s_max, k).ok().map(u64::from),
                        total
                            .checked_add(16)
                            .filter(|&cap| cap <= u64::from(u32::MAX)),
                        "{case}"
                    );
                }
            }
        }
        // In u32, phase_len(813) wrapped to 3,981,622 (and panicked in
        // debug builds).
        assert_eq!(phase_len(813, None), 4_298_948_918);
        assert_eq!(total_rounds(1, 1024, None), 17_609_382_785_100);
        assert_eq!(
            total_rounds(u32::MAX, u32::MAX, None),
            u64::MAX,
            "saturates"
        );
        // One server with 127 unit customers is the largest exact instance
        // of C = 1 whose budget fits the round counter.
        assert_eq!(round_cap(1, 127, None), Ok(4_195_358_208 + 16));
        let err = round_cap(1, 128, None).unwrap_err();
        assert!(
            err.contains("C = 1, S = 128") && err.contains("4328795724"),
            "{err}"
        );
    }

    #[test]
    #[should_panic(expected = "C = 1, S = 128 needs a budget of 4328795724 rounds")]
    fn distributed_run_refuses_a_budget_past_the_round_counter() {
        // One server shared by 128 unit customers: about 4.3·10⁹ rounds.
        let inst = AssignmentInstance::new(1, &vec![vec![0]; 128]);
        run_distributed_assignment(&inst, None, &Simulator::sequential());
    }

    #[test]
    fn rank1_customers_ok() {
        let inst = AssignmentInstance::new(2, &[vec![0], vec![0], vec![1, 0]]);
        let dist = run_distributed_assignment(&inst, None, &Simulator::sequential());
        dist.assignment.verify_stable(&inst).unwrap();
    }
}
