//! `busserved` — the concurrent bus-encoding service.
//!
//! Listens on TCP (`--listen`), negotiates one pinned encoding pipeline
//! per session, streams DATA batches through it on the session's own
//! reader thread with at most `--jobs` sessions coded at once, sheds
//! with typed RETRY-AFTER when queues fill, and drains
//! gracefully (flushing every in-flight session) on an admin SHUTDOWN
//! frame. `--self-test` runs the same stack over the in-memory
//! transport with a closed-loop load and gates the accounting
//! invariants — the CI smoke path.

use std::process::ExitCode;

use buscode_engine::cli::{
    gate_outcome, parse_u64, usage_error, CommonArgs, JsonPayload, Outcome, ToolRun, COMMON_USAGE,
};
use buscode_serve::{
    memory_listener, run_load, LoadConfig, Server, ServerConfig, TcpListenerAdapter,
};

const TOOL: &str = "busserved";

fn usage() -> String {
    format!(
        "usage: {TOOL} (--listen ADDR | --self-test) [--queue-depth N] \
         [--deadline-micros N] [--max-sessions N] [--retry-after-micros N] {COMMON_USAGE}\n\
         \n\
         --listen ADDR        serve TCP connections on ADDR (e.g. 127.0.0.1:7070)\n\
         --self-test          run server + closed-loop load in-process and gate accounting\n\
         --queue-depth N      per-session queue depth before shedding (default 4)\n\
         --deadline-micros N  expire batches older than N microseconds (default off)\n\
         --max-sessions N     concurrent session cap (default 256)\n\
         --retry-after-micros N  backoff hint in RETRY-AFTER replies (default 500)\n\
         --jobs N             sessions coded at once (0 = auto, default 1)"
    )
}

struct Args {
    listen: Option<String>,
    self_test: bool,
    config: ServerConfig,
}

fn parse_args(mut rest: Vec<String>, common: &CommonArgs) -> Result<Args, String> {
    let mut args = Args {
        listen: None,
        self_test: false,
        config: ServerConfig::default(),
    };
    let mut it = rest.drain(..);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => {
                args.listen = Some(it.next().ok_or("--listen needs an address")?);
            }
            "--self-test" => args.self_test = true,
            "--queue-depth" => {
                let value = it.next().ok_or("--queue-depth needs a value")?;
                args.config.queue_depth = usize::try_from(parse_u64("--queue-depth", &value)?)
                    .map_err(|_| "--queue-depth out of range".to_string())?;
            }
            "--deadline-micros" => {
                let value = it.next().ok_or("--deadline-micros needs a value")?;
                args.config.deadline_micros = Some(parse_u64("--deadline-micros", &value)?);
            }
            "--max-sessions" => {
                let value = it.next().ok_or("--max-sessions needs a value")?;
                args.config.max_sessions = usize::try_from(parse_u64("--max-sessions", &value)?)
                    .map_err(|_| "--max-sessions out of range".to_string())?;
            }
            "--retry-after-micros" => {
                let value = it.next().ok_or("--retry-after-micros needs a value")?;
                args.config.retry_after_micros =
                    u32::try_from(parse_u64("--retry-after-micros", &value)?)
                        .map_err(|_| "--retry-after-micros out of range".to_string())?;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    args.config.workers = match common.jobs {
        0 => std::thread::available_parallelism().map_or(2, |n| n.get()),
        n => n,
    };
    if args.listen.is_none() && !args.self_test {
        return Err("one of --listen or --self-test is required".to_string());
    }
    Ok(args)
}

fn serve_tcp(addr: &str, config: ServerConfig) -> Outcome {
    let listener = match TcpListenerAdapter::bind(addr) {
        Ok(listener) => listener,
        Err(err) => return Outcome::error(format!("{err}")),
    };
    let bound = listener
        .local_addr()
        .map_or_else(|_| addr.to_string(), |a| a.to_string());
    eprintln!("{TOOL}: listening on {bound}");
    let server = Server::new(config);
    match server.run(Box::new(listener)) {
        Ok(metrics) => {
            let text = format!(
                "drained: {} sessions served, {} words delivered, {} frames shed\n",
                metrics.sessions_closed, metrics.delivered_words, metrics.shed_frames
            );
            let data = JsonPayload::new()
                .u64("sessions_closed", metrics.sessions_closed)
                .u64("delivered_words", metrics.delivered_words)
                .u64("shed_frames", metrics.shed_frames)
                .finish();
            Outcome::success(text, data).with_metrics(metrics.metrics())
        }
        Err(err) => Outcome::error(format!("{err}")),
    }
}

fn self_test(config: ServerConfig, seed: u64) -> Outcome {
    let (listener, connector) = memory_listener();
    let server = Server::new(config);
    let handle = server.handle();
    let run = std::thread::spawn(move || server.run(Box::new(listener)));

    let load = LoadConfig {
        sessions: 8,
        words_per_session: 512,
        batch_words: 32,
        seed,
        codes: buscode_core::CodeKind::all().to_vec(),
        tiers: buscode_core::Tier::all().to_vec(),
        ..LoadConfig::default()
    };
    let report = run_load(&load, |_| {
        connector
            .connect()
            .map(|t| Box::new(t) as Box<dyn buscode_serve::Transport>)
    });
    handle.shutdown();
    let metrics = match run.join() {
        Ok(Ok(metrics)) => metrics,
        Ok(Err(err)) => return Outcome::error(format!("server failed: {err}")),
        Err(_) => return Outcome::error("server thread panicked".to_string()),
    };
    let report = match report {
        Ok(report) => report,
        Err(err) => return Outcome::error(format!("load failed: {err}")),
    };

    let mut failures = Vec::new();
    if report.delivered_words != report.words_offered {
        failures.push(format!(
            "delivery gate: {} words offered but {} delivered",
            report.words_offered, report.delivered_words
        ));
    }
    if report.mismatched_words != 0 {
        failures.push(format!(
            "integrity gate: {} decoded words differ from the offered trace",
            report.mismatched_words
        ));
    }
    if metrics.requests != metrics.delivered_frames + metrics.shed_frames + metrics.expired_frames {
        failures.push(format!(
            "accounting gate: {} requests != {} delivered + {} shed + {} expired",
            metrics.requests, metrics.delivered_frames, metrics.shed_frames, metrics.expired_frames
        ));
    }
    if metrics.sessions_closed != metrics.sessions_opened {
        failures.push(format!(
            "session gate: {} opened but {} closed",
            metrics.sessions_opened, metrics.sessions_closed
        ));
    }

    let text = format!(
        "self-test: {} sessions, {} words offered, {} delivered, {} shed\n",
        report.sessions, report.words_offered, report.delivered_words, metrics.shed_frames
    );
    let payload = JsonPayload::new()
        .report("load", &report)
        .u64("server_requests", metrics.requests)
        .u64("server_delivered", metrics.delivered_frames);
    let failed = failures.len();
    gate_outcome(
        text,
        payload,
        &failures,
        "self-test passed: every word delivered exactly once, accounting balanced",
        format!("{failed} self-test gate(s) failed"),
    )
    .with_metrics(metrics.metrics())
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let common = match CommonArgs::extract(&mut argv) {
        Ok(common) => common,
        Err(message) => return usage_error(TOOL, &usage(), &message),
    };
    if common.help {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(argv, &common) {
        Ok(args) => args,
        Err(message) => return usage_error(TOOL, &usage(), &message),
    };
    let run = ToolRun::new(TOOL, env!("CARGO_PKG_VERSION"), common);
    let outcome = if args.self_test {
        self_test(args.config, common.seed_or(42))
    } else {
        match args.listen.as_deref() {
            Some(addr) => serve_tcp(addr, args.config),
            None => Outcome::error("no listen address".to_string()),
        }
    };
    run.finish(&outcome)
}
