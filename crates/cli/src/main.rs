//! Binary shim: parse argv, dispatch, print (logic lives in the library).
//!
//! Exit codes: 0 = success, 1 = the command ran but found violations
//! (`report --monitor`, failed `explain` cross-checks), 2 = usage or IO
//! error.

use std::io::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Write errors are ignored: a reader that closed the pipe early
    // (`ftagg-cli ... | head`) must not turn into a panic.
    match ftagg_cli::Args::parse(args).and_then(|a| ftagg_cli::dispatch_full(&a)) {
        Ok(out) => {
            let mut stdout = std::io::stdout().lock();
            let _ = stdout.write_all(out.text.as_bytes()).and_then(|()| stdout.flush());
            std::process::exit(out.code);
        }
        Err(msg) => {
            let _ = writeln!(std::io::stderr(), "error: {msg}");
            std::process::exit(2);
        }
    }
}
