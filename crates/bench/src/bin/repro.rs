//! Prints the reproduction report of Guerreiro et al. (HPCA 2018): every
//! table, figure and study that `gpm_bench::repro` regenerates, in paper
//! order. It takes no argument and reads no environment variable of its
//! own (the pool under its cross-validation honours `GPM_THREADS`, which
//! changes no byte), so its output depends only on the code. `REPRO.txt`
//! at the repository root is its committed output, which CI compares
//! with a fresh run.
//!
//! Usage: `cargo run --release -p gpm-bench --bin repro > REPRO.txt`

fn main() {
    let mut out = String::new();
    gpm_bench::repro::report(&mut out).expect("writing into a String cannot fail");
    print!("{out}");
}
