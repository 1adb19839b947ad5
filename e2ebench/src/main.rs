//! `e2ebench --workload W --seed N --seconds S --trace 0|1`: runs one
//! workload and prints its metrics, the JSON result line last. Exits 1
//! when an output or invariant check failed, 2 on bad arguments.

use culzss_e2ebench::{alloc::CountingAlloc, parse_args, run, USAGE};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (text, correct) = run(&args);
    print!("{text}");
    if !correct {
        std::process::exit(1);
    }
}
