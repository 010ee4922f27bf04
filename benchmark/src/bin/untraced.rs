//! `gossip-benchmark`: the end-to-end metrics, measured with tracing off
//! and the system allocator; also folds, checks and compares result files.

fn main() {
    std::process::exit(gossip_benchmark::cli::main(false));
}
