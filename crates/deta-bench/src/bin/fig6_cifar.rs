//! Regenerates **Figure 6**: CIFAR-10 loss/accuracy and latency with four
//! vs. eight parties (IID), DeTA vs. FFL.
//!
//! Paper setup: 23-layer ConvNet, 30 rounds x 1 epoch, 10,000 examples
//! per party. This reproduction scales to 16x16 images and `--examples`
//! per party (default 150) to fit CPU budgets; the comparison shape
//! (same convergence, small latency overhead that shrinks with more
//! parties) is preserved.
//!
//! ```text
//! cargo run --release -p deta-bench --bin fig6_cifar [-- --rounds 30]
//! ```

use deta_bench::{overhead, print_series, write_csv, Args, SERIES_CSV_HEADER};
use deta_core::baseline::run_ffl;
use deta_core::{DetaConfig, DetaSession};
use deta_datasets::{iid_partition, DatasetSpec};
use deta_nn::models::convnet23;

fn main() {
    let args = Args::parse();
    let per_party: usize = args.get("examples", 150);
    let rounds: usize = args.get("rounds", 30);
    let hw = 16usize;

    let spec = DatasetSpec::cifar10_like().at_resolution(hw);
    let test = spec.generate(300, 2);
    let classes = spec.classes;
    let builder = move |rng: &mut deta_crypto::DetRng| convnet23(3, hw, classes, rng);

    let mut rows: Vec<String> = Vec::new();
    for n_parties in [4usize, 8] {
        println!("\n=== Figure 6: {n_parties} parties ===");
        let train = spec.generate(per_party * n_parties, 1);
        let shards = iid_partition(&train, n_parties, 3);

        let mut cfg = DetaConfig::deta(n_parties, rounds);
        cfg.local_epochs = 1;
        cfg.lr = 0.05;
        cfg.seed = 6;
        let mut session =
            DetaSession::setup(cfg.clone(), &builder, shards.clone()).expect("DeTA session setup");
        let deta_metrics = session.run(&test);
        print_series(&format!("DETA-{n_parties}P"), 12, &deta_metrics, &mut rows);

        let ffl_metrics = run_ffl(cfg, &builder, shards, &test).expect("FFL baseline");
        print_series(&format!("FFL-{n_parties}P"), 12, &ffl_metrics, &mut rows);

        let d = deta_metrics.last().unwrap().cumulative_latency_s;
        let f = ffl_metrics.last().unwrap().cumulative_latency_s;
        println!(
            "--> {n_parties} parties: DeTA {d:.2}s vs FFL {f:.2}s (overhead {:+.2}x; \
             paper: {} )",
            overhead(d, f),
            if n_parties == 4 { "+0.16x" } else { "+0.04x" }
        );
        println!(
            "--> final accuracy: DeTA {:.1}% vs FFL {:.1}%",
            deta_metrics.last().unwrap().test_accuracy * 100.0,
            ffl_metrics.last().unwrap().test_accuracy * 100.0
        );
    }
    write_csv("fig6_cifar.csv", SERIES_CSV_HEADER, &rows);
}
