//! `serve-refine`: `refine.check` round trips against an in-process
//! `seqwm_serve::Server`.
//!
//! Two connections run a closed loop, each waiting for its reply before
//! sending the next request. Connection `c` sends request `k` as op
//! `2k + c` of the run seed. Half the requests repeat one of that
//! connection's recent fresh requests byte for byte (a result-cache
//! hit); the other half are a fresh variant of one of the paper's 60
//! transformation pairs, with locations and registers renamed
//! consistently from a bounded name pool, which is a new cache key with
//! the same verdict and cost.

use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use seqwm_explore::counters::{REFINE_ENUMERATIONS, REFINE_FUEL_SPENT};
use seqwm_explore::SplitMix64;
use seqwm_json::Json;
use seqwm_lang::parser::parse_program;
use seqwm_lang::Program;
use seqwm_litmus::transform::{transform_corpus, Expectation};
use seqwm_seq::advanced::refines_advanced;
use seqwm_seq::refine::{refines_simple, RefineConfig};
use seqwm_serve::{ServeConfig, Server};

use crate::report::{
    median, ms, op_seed, put_end_to_end, put_host_layer, ratio, Bound, Outcome, SetupClock,
};
use crate::trace::Tracer;
use crate::RunArgs;

/// Client connections (closed loop).
const CONNS: usize = 2;
/// Names per kind (locations, registers) and connection.
const NAME_POOL: usize = 32;
/// A repeat picks among this many of its connection's latest fresh
/// requests, so it stays within the result cache's capacity at any
/// request rate.
const REPEAT_WINDOW: usize = 128;
/// Attempts at drawing a variant not sent before.
const FRESH_ATTEMPTS: usize = 64;
/// Set-ups per timed chunk. Each set-up leaves three sockets in
/// TIME_WAIT for a minute; with chunks of 1,280, six runs in a row left
/// 32,000 of them, more than the 28,000 ephemeral ports a client may
/// connect from. At 384 a run leaves about 2,300.
const SETUP_REPS: usize = 384;
/// Socket read timeout: far above any reply time, so a hung daemon
/// fails the run instead of hanging it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A transformation pair with the names a variant may rename.
struct Pair {
    src: String,
    tgt: String,
    expectation: Expectation,
    locs: Vec<String>,
    regs: Vec<String>,
}

fn names(progs: [&Program; 2]) -> (Vec<String>, Vec<String>) {
    let mut locs = std::collections::BTreeSet::new();
    let mut regs = std::collections::BTreeSet::new();
    for p in progs {
        locs.extend(p.locs().into_iter().map(|l| l.name()));
        regs.extend(p.body.regs().into_iter().map(|r| r.name()));
    }
    (locs.into_iter().collect(), regs.into_iter().collect())
}

fn pairs() -> Result<Vec<Pair>, String> {
    transform_corpus()
        .into_iter()
        .map(|c| {
            let (src, tgt) = (c.src_program(), c.tgt_program());
            let (locs, regs) = names([&src, &tgt]);
            if let Some(n) = locs.iter().find(|n| regs.contains(n)) {
                return Err(format!("{}: `{n}` names a location and a register", c.name));
            }
            Ok(Pair {
                src: c.src.to_string(),
                tgt: c.tgt.to_string(),
                expectation: c.expectation,
                locs,
                regs,
            })
        })
        .collect()
}

/// Replaces every identifier token found in `map`.
fn rename(text: &str, map: &BTreeMap<&str, String>) -> String {
    let mut out = String::with_capacity(text.len() + 16);
    let mut rest = text;
    while let Some(start) = rest.find(|c: char| c.is_ascii_alphabetic() || c == '_') {
        out.push_str(&rest[..start]);
        let tail = &rest[start..];
        let end = tail
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(tail.len());
        let word = &tail[..end];
        out.push_str(map.get(word).map_or(word, String::as_str));
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// One request of a connection's stream.
#[derive(Clone)]
struct Request {
    line: String,
    pair: usize,
    repeat: bool,
    /// The op index this request was sent as.
    op: u64,
}

/// A connection's deterministic request stream.
struct Stream {
    conn: usize,
    seed: u64,
    k: u64,
    fresh: Vec<Request>,
    seen: HashSet<String>,
}

impl Stream {
    fn new(conn: usize, seed: u64) -> Stream {
        Stream {
            conn,
            seed,
            k: 0,
            fresh: Vec::new(),
            seen: HashSet::new(),
        }
    }

    fn next(&mut self, pairs: &[Pair]) -> Request {
        let op = self.k * CONNS as u64 + self.conn as u64;
        self.k += 1;
        let mut rng = SplitMix64::new(op_seed(self.seed, op));
        if !self.fresh.is_empty() && rng.flip() {
            let window = self.fresh.len().min(REPEAT_WINDOW);
            let pick = self.fresh.len() - 1 - rng.below(window);
            return Request {
                repeat: true,
                op,
                ..self.fresh[pick].clone()
            };
        }
        for _ in 0..FRESH_ATTEMPTS {
            let pair = rng.below(pairs.len());
            let params = self.variant(&pairs[pair], &mut rng);
            if self.seen.insert(params.clone()) {
                let req = Request {
                    line: format!(
                        "{{\"jsonrpc\":\"2.0\",\"id\":{op},\"method\":\"refine.check\",\"params\":{params}}}"
                    ),
                    pair,
                    repeat: false,
                    op,
                };
                self.fresh.push(req.clone());
                return req;
            }
        }
        // Every draw was already sent: the name pool is exhausted. Send
        // the last draw again, as a repeat.
        Request {
            repeat: true,
            op,
            ..self.fresh[self.fresh.len() - 1].clone()
        }
    }

    /// The params of a consistently renamed variant of `p`.
    fn variant(&self, p: &Pair, rng: &mut SplitMix64) -> String {
        let mut map = BTreeMap::new();
        for (kind, names) in [("l", &p.locs), ("r", &p.regs)] {
            let mut pool: Vec<usize> = (0..NAME_POOL).collect();
            for name in names.iter() {
                let slot = pool.swap_remove(rng.below(pool.len()));
                map.insert(name.as_str(), format!("pb{}{kind}{slot}", self.conn));
            }
        }
        Json::obj(vec![
            ("src", Json::str(rename(&p.src, &map))),
            ("tgt", Json::str(rename(&p.tgt, &map))),
        ])
        .to_string()
    }
}

/// A blocking line-oriented client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(server: &Server) -> Result<Client, String> {
        let stream = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line and reads one reply line.
    fn call(&mut self, line: &str) -> Result<String, String> {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        self.writer
            .write_all(&frame)
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// A started daemon with its clients.
struct Daemon {
    server: Server,
    clients: Vec<Client>,
    dir: PathBuf,
}

fn start(work: &Path, tag: &str) -> Result<Daemon, String> {
    let dir = work.join(format!("serve-state-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServeConfig {
        port: 0,
        state_dir: dir.clone(),
        ..ServeConfig::default()
    })?;
    let clients = (0..CONNS)
        .map(|_| Client::connect(&server))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Daemon {
        server,
        clients,
        dir,
    })
}

fn stop(d: Daemon) {
    drop(d.clients);
    d.server.shutdown();
    d.server.wait();
    let _ = std::fs::remove_dir_all(&d.dir);
}

/// One answered request.
struct Sent {
    req: Request,
    reply: String,
    ms: f64,
}

/// What [`drive`] returns: each connection's answered requests, the
/// wall time, and each connection's spans.
type Driven = (Vec<Vec<Sent>>, Duration, Vec<Tracer>);

/// When a connection stops sending.
#[derive(Clone, Copy)]
enum Until<'a> {
    /// No new request after this instant.
    Deadline(Instant),
    /// Exactly this many requests per connection.
    Counts(&'a [usize]),
}

/// Drives every client in a closed loop, each until `until` says stop.
fn drive(
    daemon: &mut Daemon,
    pairs: &[Pair],
    seed: u64,
    until: Until<'_>,
    traced: bool,
    epoch: Instant,
) -> Result<Driven, String> {
    let start = Instant::now();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = daemon
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || -> Result<(Vec<Sent>, Tracer), String> {
                    let mut tr = Tracer::new(traced, epoch);
                    let mut stream = Stream::new(c, seed);
                    let mut sent = Vec::new();
                    while match until {
                        Until::Deadline(d) => Instant::now() < d,
                        Until::Counts(n) => sent.len() < n[c],
                    } {
                        let req = stream.next(pairs);
                        let t = Instant::now();
                        let id = tr.enter("serve.rpc", req.op);
                        let reply = client.call(&req.line)?;
                        let cached = reply.contains("\"cached\":true");
                        tr.exit(id, if cached { "hit" } else { "miss" });
                        sent.push(Sent {
                            req,
                            reply,
                            ms: ms(t.elapsed()),
                        });
                    }
                    Ok((sent, tr))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    let wall = start.elapsed();
    let (sent, tracers) = results.into_iter().unzip();
    Ok((sent, wall, tracers))
}

/// The verdict and method of a `refine.check` reply, and whether it
/// came from the result cache; `None` for an error reply.
fn parse_reply(reply: &str) -> Result<Option<(String, String, bool)>, String> {
    let doc = Json::parse(reply.trim_end()).map_err(|e| format!("bad reply {reply:?}: {e}"))?;
    if doc.get("error").is_some() {
        return Ok(None);
    }
    let field = |path: &[&str]| -> Result<&Json, String> {
        let mut v = &doc;
        for key in path {
            v = v
                .get(key)
                .ok_or_else(|| format!("reply lacks {path:?}: {reply}"))?;
        }
        Ok(v)
    };
    let verdict = field(&["result", "result", "verdict"])?
        .as_str("verdict")?
        .to_string();
    let method = field(&["result", "result", "method"])?
        .as_str("method")?
        .to_string();
    let cached = field(&["result", "cached"])?.as_bool("cached")?;
    Ok(Some((verdict, method, cached)))
}

/// Checks every reply against its pair's expectation; returns the number
/// of cache hits.
fn check(pairs: &[Pair], sent: &[Vec<Sent>], out: &mut Outcome) -> Result<u64, String> {
    let mut hits = 0;
    for s in sent.iter().flatten() {
        out.attempted += 1;
        let Some((verdict, method, cached)) = parse_reply(&s.reply)? else {
            out.failed += 1;
            eprintln!("serve-refine: error reply {}", s.reply.trim_end());
            continue;
        };
        hits += u64::from(cached);
        let want = match pairs[s.req.pair].expectation {
            Expectation::Simple => ("holds", Some("simple")),
            Expectation::AdvancedOnly => ("holds", Some("advanced")),
            Expectation::Unsound => ("refuted", None),
        };
        if verdict != want.0 || want.1.is_some_and(|m| m != method) {
            out.wrong(format!(
                "{} answered {verdict} by {method}, expected {want:?}",
                s.req.line
            ));
        }
    }
    Ok(hits)
}

/// The in-process cost of each fresh request's check: simple, then
/// advanced when simple fails, as the daemon's `refine.check` does.
fn check_in_process(sent: &[Vec<Sent>], tr: &mut Tracer) -> Result<Vec<f64>, String> {
    let cfg = RefineConfig::default();
    let mut out = Vec::new();
    for (i, s) in sent.iter().flatten().filter(|s| !s.req.repeat).enumerate() {
        let doc = Json::parse(&s.req.line).map_err(|e| format!("own request: {e}"))?;
        let text = |k: &str| -> Result<Program, String> {
            let src = doc
                .get("params")
                .and_then(|p| p.get(k))
                .ok_or("own request lacks params")?
                .as_str(k)?;
            parse_program(src).map_err(|e| format!("{k}: {e}"))
        };
        let (src, tgt) = (text("src")?, text("tgt")?);
        let t = Instant::now();
        let id = tr.enter("core.refine", i as u64);
        let simple = refines_simple(&src, &tgt, &cfg).map_err(|e| e.to_string())?;
        if !simple.holds {
            refines_advanced(&src, &tgt, &cfg).map_err(|e| e.to_string())?;
        }
        tr.exit(id, "");
        out.push(ms(t.elapsed()));
    }
    Ok(out)
}

/// Runs the workload.
pub fn run(args: &RunArgs, out: &mut Outcome, tracer: &mut Tracer) -> Result<(), String> {
    // Set-up: parse the pairs, start the daemon, connect the clients;
    // timed in a chunk before the timed phase and another after it.
    let mut clock = SetupClock::new(SETUP_REPS, &args.work);
    let setup = |rep: usize| Ok((pairs()?, start(&args.work, &format!("setup{rep}"))?));
    let teardown = |(_, d): (Vec<Pair>, Daemon)| stop(d);
    let (pairs, mut daemon) = clock.chunk(setup, teardown)?;

    let deadline = Until::Deadline(Instant::now() + args.seconds);
    let epoch = tracer.epoch();
    let (sent, wall, _) = drive(&mut daemon, &pairs, args.seed, deadline, false, epoch)?;
    stop(daemon);
    teardown(clock.chunk(setup, teardown)?);
    let op_ms: Vec<f64> = sent.iter().flatten().map(|s| s.ms).collect();
    check(&pairs, &sent, out)?;

    if !args.trace {
        put_end_to_end(out, op_ms.len(), wall, &clock, Bound::Wait);
        return Ok(());
    }
    put_host_layer(out, op_ms.len(), wall, &clock);

    // Traced replay of the same requests against a fresh daemon.
    let counts: Vec<usize> = sent.iter().map(Vec::len).collect();
    let mut daemon = start(&args.work, "traced")?;
    let (traced, traced_wall, tracers) = drive(
        &mut daemon,
        &pairs,
        args.seed,
        Until::Counts(&counts),
        true,
        epoch,
    )?;
    let stats = daemon.clients[0]
        .call(r#"{"jsonrpc":"2.0","id":0,"method":"server.stats","params":{}}"#)?;
    let state_bytes = crate::report::dir_bytes(&daemon.dir);
    stop(daemon);
    let hits = check(&pairs, &traced, out)?;
    let stats = Json::parse(stats.trim_end()).map_err(|e| format!("bad stats reply: {e}"))?;
    let jobs_failed = stats
        .get("result")
        .and_then(|r| r.get("jobs"))
        .and_then(|j| j.get("failed"))
        .ok_or("server.stats lacks jobs.failed")?
        .as_u64("jobs.failed")?;

    for t in tracers {
        tracer.absorb(t);
    }
    let fuel0 = REFINE_FUEL_SPENT.load(Ordering::Relaxed);
    let enum0 = REFINE_ENUMERATIONS.load(Ordering::Relaxed);
    let checks = check_in_process(&traced, tracer)?;
    let fuel = (REFINE_FUEL_SPENT.load(Ordering::Relaxed) - fuel0) as f64;
    let enumerations = (REFINE_ENUMERATIONS.load(Ordering::Relaxed) - enum0) as f64;

    let rpc_ms = |tag: &str| -> Vec<f64> {
        tracer
            .spans()
            .iter()
            .filter(|s| s.name == "serve.rpc" && s.tag == tag)
            .map(|s| s.ms())
            .collect()
    };
    let (hit_ms, miss_ms) = (rpc_ms("hit"), rpc_ms("miss"));
    let check_ms = median(&checks);
    let total: usize = counts.iter().sum();
    out.put("core.refine_fuel", fuel, "count");
    out.put("core.refine_enumerations", enumerations, "count");
    out.put(
        "core.fuel_per_s",
        ratio(fuel, checks.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    out.put("serve.hit_p50_ms", median(&hit_ms), "ms");
    out.put("serve.miss_p50_ms", median(&miss_ms), "ms");
    out.put("serve.check_ms", check_ms, "ms");
    out.put("serve.overhead_ms", median(&miss_ms) - check_ms, "ms");
    out.put("serve.hit_share", ratio(hits as f64, total as f64), "share");
    out.put("serve.state_bytes", state_bytes as f64, "bytes");
    out.put("serve.jobs_failed", jobs_failed as f64, "count");
    crate::put_run_layer(out, &op_ms, wall.as_secs_f64(), traced_wall);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rename_replaces_whole_identifiers_only() {
        let map = BTreeMap::from([("x", "pb0l3".to_string()), ("a", "pb0r1".to_string())]);
        assert_eq!(
            rename("a := load[na](x); xa := a + 1; return a;", &map),
            "pb0r1 := load[na](pb0l3); xa := pb0r1 + 1; return pb0r1;"
        );
    }

    #[test]
    fn streams_are_seeded_and_repeats_are_byte_identical() {
        let pairs = pairs().expect("corpus pairs");
        let draw = |seed| {
            let mut s = Stream::new(0, seed);
            (0..200).map(|_| s.next(&pairs)).collect::<Vec<_>>()
        };
        let (a, b) = (draw(1), draw(1));
        assert!(a.iter().zip(&b).all(|(x, y)| x.line == y.line));
        assert!(a.iter().zip(draw(2)).any(|(x, y)| x.line != y.line));
        let fresh: Vec<&str> = a
            .iter()
            .filter(|r| !r.repeat)
            .map(|r| r.line.as_str())
            .collect();
        let unique: HashSet<&str> = fresh.iter().copied().collect();
        assert_eq!(unique.len(), fresh.len(), "fresh requests never repeat");
        assert!(a
            .iter()
            .filter(|r| r.repeat)
            .all(|r| unique.contains(r.line.as_str())));
        let repeats = a.iter().filter(|r| r.repeat).count();
        assert!((60..140).contains(&repeats), "{repeats} repeats of 200");
        for r in a.iter().filter(|r| !r.repeat) {
            let doc = Json::parse(&r.line).expect("request is JSON");
            let params = doc.get("params").expect("params");
            for k in ["src", "tgt"] {
                let text = params.get(k).and_then(|v| v.as_str(k).ok()).expect("text");
                parse_program(text).expect("a renamed variant parses");
            }
        }
    }
}
