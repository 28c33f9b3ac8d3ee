//! CLI plumbing shared by the server binaries (`prt-svc`, `svc-demo`)
//! and, through `prt_bench`'s re-export, the experiment binaries: loud
//! argument/environment parsing. Bad input must never abort via an
//! `unwrap` backtrace (useless in a CI log) or, worse, fall back
//! silently to a default experiment.

/// Prints `error: <message>` to stderr and exits with a nonzero code.
pub fn die(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// Parses positional CLI argument `n` (1-based, as in `env::args`) as a
/// `T`, using `default` when the argument is absent. A *present but
/// malformed* argument is a usage error: the binary exits nonzero with a
/// message naming the parameter.
pub fn arg_or<T>(n: usize, default: T, what: &str) -> T
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    match std::env::args().nth(n) {
        None => default,
        Some(raw) => {
            raw.parse().unwrap_or_else(|e| die(format!("invalid {what} argument '{raw}': {e}")))
        }
    }
}

/// Parses environment variable `name` as a `T`, using `default` when it
/// is unset. A set-but-malformed value exits nonzero, like [`arg_or`].
pub fn env_or<T>(name: &str, default: T) -> T
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    match std::env::var(name) {
        Err(_) => default,
        Ok(raw) => {
            raw.parse().unwrap_or_else(|e| die(format!("invalid {name} value '{raw}': {e}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_argument_and_env_use_defaults() {
        assert_eq!(arg_or(500, 42usize, "n"), 42);
        assert_eq!(env_or("PRT_SVC_SURELY_UNSET_VAR", 7u32), 7);
    }
}
