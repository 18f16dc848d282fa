//! The one place the CLI writes to stdout.
//!
//! `println!` panics when stdout goes away, so `largeea align … | head -1`
//! used to die with a backtrace (exit 101) before writing the files it was
//! asked for. Every stdout line goes through [`outln!`]/[`out!`] instead:
//! the first `BrokenPipe` stops all further printing, and the command
//! carries on — output files are still written, the exit code still says
//! whether the work succeeded.

use std::io::{ErrorKind, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once a write to stdout failed with `BrokenPipe`.
static CLOSED: AtomicBool = AtomicBool::new(false);

/// Whether the reader of stdout has gone away (nothing more is printed).
fn closed() -> bool {
    CLOSED.load(Ordering::Relaxed)
}

/// Writes `args` to stdout unless its reader has gone away.
pub fn write(args: std::fmt::Arguments<'_>) {
    if closed() {
        return;
    }
    match std::io::stdout().lock().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => CLOSED.store(true, Ordering::Relaxed),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// `println!` through [`write`].
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::out::write(format_args!("{}\n", format_args!($($arg)*)))
    };
}
