// A library default that consults the environment behind its caller's
// back: the same call answers differently in two processes.  D3 must fire
// on both spellings of the read.
use std::env;

pub fn threads() -> usize {
    let raw = env::var("PANDA_THREADS"); // line 7: D3 (env::var)
    raw.ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}

pub fn cache_disabled() -> bool {
    std::env::var_os("PANDA_PLAN_CACHE").is_some() // line 12: D3 (env::var_os)
}
