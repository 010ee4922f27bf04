//! `gossip-benchmark-traced`: the same library with spans on and a
//! counting allocator installed, for the per-layer metrics.

#[global_allocator]
static GLOBAL: gossip_benchmark::alloc::Counting = gossip_benchmark::alloc::Counting;

fn main() {
    std::process::exit(gossip_benchmark::cli::main(true));
}
