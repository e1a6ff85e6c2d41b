//! Tour of the **scenario registry**: every named workload in `td-bench`,
//! run end-to-end through the same [`td_bench::Scenario`] interface the
//! `td bench` CLI subcommand and the criterion benches use.
//!
//! Each scenario bundles instance construction with the paper-faithful
//! solver and verifies its own output, so this example doubles as a smoke
//! test across all three problem families (games, orientations,
//! assignments).
//!
//! Run with: `cargo run --release --example scenarios`

use td_bench::scenario;
use token_dropping::local::Simulator;

fn main() {
    println!("{}", scenario::listing());

    let sim = Simulator::sequential();
    for s in scenario::registry() {
        let rep = s.run(s.default_size(), 42, &sim);
        println!(
            "{:>19}  [{}]  n = {:>4}, m = {:>4}  →  {:>6} rounds, {:>8} messages  ({:.2?})",
            rep.scenario,
            s.kind().label(),
            rep.nodes,
            rep.edges,
            rep.rounds,
            rep.messages,
            rep.wall,
        );
        for (k, v) in &rep.notes {
            println!("{:>23}{k}: {v}", "");
        }
    }
    println!("\n(each run verified its own output; try `td bench <name> --size N --seed S`)");
}
