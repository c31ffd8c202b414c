//! A miniature of the paper's Figure 1: latency of atomic broadcast as a
//! function of message size, with consensus on full messages vs indirect
//! consensus on identifiers.
//!
//! Run with: `cargo run --release --example latency_sweep`
//! (use --release: this simulates tens of thousands of messages)

use indirect_abcast::prelude::*;

fn main() {
    let net = NetworkParams::setup1();
    let throughput = 100.0;

    println!("n = 3, Setup 1, {throughput} msg/s (mini Figure 1a)\n");
    println!("{:>10} | {:>22} | {:>22}", "size [B]", "Indirect (mean ms)", "Consensus (mean ms)");

    for size in [1usize, 1000, 2000, 3000, 4000, 5000] {
        let mut spec = WorkloadSpec::new(3, throughput, size, Duration::from_secs(3));
        spec.warmup = Duration::from_millis(500);
        spec.stack.cost = CostModel::setup1();
        let indirect = run_variant(VariantKind::Indirect, ConsensusFamily::Ct, &net, &spec);
        let direct = run_variant(VariantKind::DirectMessages, ConsensusFamily::Ct, &net, &spec);
        println!(
            "{size:>10} | {:>22.3} | {:>22.3}",
            indirect.mean_ms(),
            direct.mean_ms()
        );
    }
    println!(
        "\nIndirect consensus keeps consensus traffic payload-free, so its latency\n\
         barely grows with message size — the motivation for the whole paper."
    );
}
