// A binary's entry point is where a process reads its environment: the
// value is parsed once and handed down as an argument, so every library
// call below it stays a function of its inputs.  D3 must stay silent.
#![forbid(unsafe_code)]

fn serve(threads: usize) -> usize {
    threads.max(1)
}

fn main() {
    let setting = std::env::var("PANDA_THREADS").ok();
    let threads = setting.as_deref().and_then(|v| v.trim().parse().ok()).unwrap_or(1);
    let _ = serve(threads);
}
