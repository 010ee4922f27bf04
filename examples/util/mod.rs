//! Helpers shared by the example binaries (not an example itself: cargo
//! only auto-discovers `examples/*.rs` and `examples/*/main.rs`).

use std::path::Path;

/// Optional first CLI argument overrides the network size (used by the
/// examples smoke test to run every example at a small `n`). An argument
/// that is not an integer fitting `u32` prints `usage: <example> [n]` to
/// stderr and exits 2, the exp binaries' convention for bad input.
pub fn arg_n(default: usize) -> usize {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    let n = match args.next().map(|a| a.parse::<u32>()) {
        None => default,
        Some(Ok(n)) => n as usize,
        Some(Err(_)) => {
            let name = Path::new(&program).file_stem().and_then(|s| s.to_str());
            eprintln!("usage: {} [n]", name.unwrap_or("example"));
            std::process::exit(2);
        }
    };
    n.max(4)
}
