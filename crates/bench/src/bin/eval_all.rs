//! Tables VII, VIII and IX from one training run: trains MoSConS once on
//! the profiling suite, then prints op-inference accuracy (Table VII),
//! hyper-parameter accuracy (Table VIII) and the recovered structures
//! (Table IX). See `bench::print_table7`, `bench::print_table8` and
//! `bench::print_table9`.

use bench::{attack_tested_models, print_table7, print_table8, print_table9, train_moscons, Scale};

fn main() {
    let scale = Scale::from_env();
    eprintln!("training MoSConS on the profiling suite (once for all tables)...");
    let t0 = std::time::Instant::now();
    let moscons = train_moscons(scale);
    eprintln!("profiling + training took {:?}", t0.elapsed());
    let evals = attack_tested_models(&moscons, scale);
    print_table7(&evals);
    print_table8(&moscons, scale);
    print_table9(&evals);
}
