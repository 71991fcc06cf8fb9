//! `trace` — record, inspect, import and verify BTF trace archives.
//!
//! See `bard_bench::tracecli` for the subcommands and `docs/TRACES.md` for
//! the BTF1 format and the record/replay workflows. A malformed invocation
//! exits 2 with the usage text; a failed subcommand exits 1.

use bard_bench::harness::usage_error;
use bard_bench::tracecli::{run, Error, USAGE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::new();
    let result = run(&args, &mut out);
    print!("{out}");
    match result {
        Ok(()) => {}
        Err(Error::Usage(message)) => usage_error(&format!("trace: {message}"), USAGE),
        Err(Error::Failed(message)) => {
            eprintln!("trace: {message}");
            std::process::exit(1);
        }
    }
}
