//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [options]
//!
//! experiments:
//!   fig1          level/delay correlation scatter (Fig. 1)
//!   table1        proxy-metric collisions (Table I)
//!   fig2          baseline vs ground-truth iteration runtime (Fig. 2)
//!   table3        model accuracy with train/test split (Table III)
//!   table4        three-flow iteration runtime (Table IV)
//!   fig5          Pareto fronts of the three flows (Fig. 5)
//!   gnn-ablation  GNN vs boosted trees (§III-B)
//!   all           everything above
//!
//! options:
//!   --samples N        labeled variants per design   [default 600]
//!   --fig1-samples N   variants for fig1/table1      [default 400]
//!   --iterations N     SA iterations per sweep run   [default 30]
//!   --reps N           timing repetitions            [default 12]
//!   --gnn-samples N    graphs per design (ablation)  [default 120]
//!   --design NAME      fig5 target design            [default ex11]
//!   --seed N           base RNG seed                 [default 2024]
//!   --out DIR          CSV output directory          [default results/]
//!   --smoke            tiny preset for a quick check
//! ```

#![forbid(unsafe_code)]

use experiments::{fig1, fig2, fig5, gnn_ablation, table1, table3, table4, Config};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("usage: repro <fig1|table1|fig2|table3|table4|fig5|gnn-ablation|all> [options]");
        eprintln!("run with --help for options");
        std::process::exit(2);
    };
    if cmd == "--help" || cmd == "-h" {
        println!("see crate docs: cargo doc -p experiments --open (binary `repro`)");
        return;
    }
    let mut cfg = Config::default();
    let mut design = "ex11".to_owned();
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut take = |cfgv: &mut dyn FnMut(&str)| {
            i += 1;
            match args.get(i) {
                Some(v) => cfgv(v),
                None => {
                    eprintln!("missing value for {flag}");
                    std::process::exit(2);
                }
            }
        };
        match flag {
            "--samples" => take(&mut |v| cfg.samples = parse(v)),
            "--fig1-samples" => take(&mut |v| cfg.fig1_samples = parse(v)),
            "--iterations" => take(&mut |v| cfg.sa_iterations = parse(v)),
            "--reps" => take(&mut |v| cfg.timing_reps = parse(v)),
            "--gnn-samples" => take(&mut |v| cfg.gnn_samples = parse(v)),
            "--seed" => take(&mut |v| cfg.seed = parse(v)),
            "--design" => take(&mut |v| design = v.to_owned()),
            "--out" => take(&mut |v| cfg.out_dir = v.into()),
            "--smoke" => {
                let out = cfg.out_dir.clone();
                cfg = Config::smoke();
                cfg.out_dir = out;
            }
            other => {
                eprintln!("unknown option `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let t0 = Instant::now();
    match cmd.as_str() {
        "fig1" => println!("{}", fig1::summarize(&fig1::run(&cfg))),
        "table1" => println!("{}", table1::summarize(&table1::run(&cfg))),
        "fig2" => println!("{}", fig2::summarize(&fig2::run(&cfg))),
        "table3" => println!("{}", table3::summarize(&table3::run(&cfg))),
        "table4" => println!("{}", table4::summarize(&table4::run(&cfg))),
        "fig5" => println!("{}", fig5::summarize(&fig5::run_on_design(&cfg, &design))),
        "gnn-ablation" => println!("{}", gnn_ablation::summarize(&gnn_ablation::run(&cfg))),
        "all" => {
            println!("{}\n", fig1::summarize(&fig1::run(&cfg)));
            println!("{}\n", table1::summarize(&table1::run(&cfg)));
            println!("{}\n", fig2::summarize(&fig2::run(&cfg)));
            let t3 = table3::run(&cfg);
            println!("{}\n", table3::summarize(&t3));
            println!(
                "{}\n",
                table4::summarize(&table4::run_with_models(
                    &cfg,
                    &t3.delay_model,
                    &t3.area_model
                ))
            );
            println!("{}\n", fig5::summarize(&fig5::run_on_design(&cfg, &design)));
            println!("{}\n", gnn_ablation::summarize(&gnn_ablation::run(&cfg)));
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            std::process::exit(2);
        }
    }
    eprintln!(
        "\n[{}] finished in {:.1}s; CSV artifacts in {}",
        cmd,
        t0.elapsed().as_secs_f64(),
        cfg.out_dir.display()
    );
}

fn parse<T: std::str::FromStr>(v: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("cannot parse `{v}`");
        std::process::exit(2);
    })
}
