//! serve-write and serve-read: the `depkit serve` binary over loopback
//! TCP, driven closed-loop by two clients.

use crate::gen::{self, ClientState, Op, Spec, State, Stream, Unit};
use crate::trace::Tracer;
use depkit_serve::json::{self, Json};
use depkit_serve::ResilientClient;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Closed-loop client connections (the host has two cores).
pub const CLIENTS: u64 = 2;
/// `--checkpoint-every` for serve-write: small enough that every run
/// completes several checkpoints.
pub const CHECKPOINT_EVERY: u64 = 16;
/// Sessionless `query` and `health` lines sent after the loop of a
/// traced run, so every traced run has wire read latencies.
pub const READ_PROBES: usize = 20;

/// One running `depkit serve` child. Dropping it kills (SIGKILL) and
/// reaps the process.
pub struct ServerProc {
    child: Child,
    // Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServerProc {
    /// Spawn the server and wait for its `serving` line; returns the
    /// server and the seconds from spawn to that line. With `data_dir`
    /// the catalog is durable under `--fsync always`.
    pub fn spawn(
        depkit: &Path,
        spec: &Path,
        data_dir: Option<&Path>,
    ) -> Result<(ServerProc, f64), String> {
        let mut cmd = Command::new(depkit);
        cmd.arg("serve").arg(spec).args(["--addr", "127.0.0.1:0"]);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir).args([
                "--fsync",
                "always",
                "--checkpoint-every",
                &CHECKPOINT_EVERY.to_string(),
            ]);
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let t0 = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", depkit.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            let n = out.read_line(&mut line).map_err(|e| e.to_string());
            if n != Ok(0) && line.starts_with("serving ") {
                break;
            }
            if n.is_err() || n == Ok(0) {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "depkit serve exited before its serving line: {n:?}"
                ));
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        let addr = line
            .split_once(" on ")
            .and_then(|(_, rest)| rest.split_once(" ("))
            .map(|(addr, _)| addr.to_owned())
            .ok_or_else(|| format!("unparseable serving line `{}`", line.trim()))?;
        Ok((
            ServerProc {
                child,
                _stdout: out,
                addr,
            },
            secs,
        ))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The benchmark's own line-JSON client: one `write_all` per request
/// line, one line read per reply.
pub struct LineConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl LineConn {
    pub fn connect(addr: &str) -> Result<LineConn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        Ok(LineConn {
            reader: BufReader::new(s.try_clone().map_err(|e| e.to_string())?),
            writer: s,
        })
    }

    /// Send one request line and read its reply (newline stripped).
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        let mut msg = String::with_capacity(line.len() + 1);
        msg.push_str(line);
        msg.push('\n');
        self.writer
            .write_all(msg.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => {
                reply.truncate(reply.trim_end().len());
                Ok(reply)
            }
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

fn reply_ok(reply: &str) -> bool {
    json::parse(reply)
        .ok()
        .and_then(|v| v.get("ok").and_then(Json::as_bool))
        == Some(true)
}

/// A unit the client finished, in the order it finished them.
#[derive(Debug, Clone)]
pub struct Done {
    pub unit: Unit,
    /// The `(client, token)` idempotency tag a commit went out under.
    pub tag: Option<(String, String)>,
}

/// What one client did during the timed window.
#[derive(Debug, Default)]
pub struct ClientRun {
    pub state: ClientState,
    pub attempted: u64,
    pub failed: u64,
    /// Request lines answered.
    pub lines: u64,
    pub txn_ms: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub health_ms: Vec<f64>,
    pub done: Vec<Done>,
    /// Token and generation of the last acknowledged tagged commit.
    pub last_ack: Option<(String, u64)>,
    /// Every reply line the raw client read.
    pub replies: Vec<String>,
    /// Wall-clock end of this client's last unit.
    pub end: Option<Instant>,
}

fn write_client(
    addr: &str,
    seed: u64,
    c: u64,
    start: Instant,
    deadline: Instant,
    tr: Option<&Tracer>,
) -> ClientRun {
    let mut stream = Stream::new(seed, c, false);
    let id = format!("c{c}");
    let mut client = ResilientClient::new(addr, &id);
    let mut run = ClientRun::default();
    std::thread::sleep(start.saturating_duration_since(Instant::now()));
    let mut seq = 0u64;
    while Instant::now() < deadline {
        let Unit::Commit(ops) = stream.next_unit() else {
            unreachable!("the write mix only commits")
        };
        let lines: Vec<String> = ops.iter().map(Op::line).collect();
        let token = client.next_token();
        let span = tr.map(|t| t.open("client.commit_batch", 0, (c << 32) | seq));
        let t0 = Instant::now();
        let res = client.commit_batch(&lines);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let (Some(t), Some(s)) = (tr, span) {
            t.close(s);
        }
        seq += 1;
        run.attempted += 1;
        match res {
            Ok(ack) => {
                stream.ack();
                run.txn_ms.push(ms);
                run.lines += lines.len() as u64 + 2;
                run.last_ack = Some((token.clone(), ack.generation));
                run.done.push(Done {
                    unit: Unit::Commit(ops),
                    tag: Some((id.clone(), token)),
                });
            }
            Err(e) => {
                eprintln!("perfbench: client {id}: commit_batch failed: {e}");
                run.failed += 1;
            }
        }
    }
    run.end = Some(Instant::now());
    run.state = stream.state;
    run
}

fn verb_span(line: &str) -> &'static str {
    for (verb, name) in [
        ("\"begin\"", "wire.begin"),
        ("\"insert\"", "wire.insert"),
        ("\"delete\"", "wire.delete"),
        ("\"query\"", "wire.query"),
        ("\"health\"", "wire.health"),
        ("\"commit\"", "wire.commit"),
        ("\"abort\"", "wire.abort"),
    ] {
        if line.contains(verb) {
            return name;
        }
    }
    "wire.other"
}

/// One raw-client round trip, counted and optionally traced. Returns the
/// reply and the round-trip time in ms.
fn call(
    conn: &mut LineConn,
    run: &mut ClientRun,
    line: &str,
    tr: Option<&Tracer>,
    parent: u64,
    req: u64,
) -> Result<(bool, f64), String> {
    let span = tr.map(|t| t.open(verb_span(line), parent, req));
    let t0 = Instant::now();
    let reply = conn.call(line)?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if let (Some(t), Some(s)) = (tr, span) {
        t.close(s);
    }
    run.attempted += 1;
    run.lines += 1;
    let ok = reply_ok(&reply);
    if !ok {
        eprintln!("perfbench: `{line}` was refused: {reply}");
        run.failed += 1;
    }
    run.replies.push(reply);
    Ok((ok, ms))
}

fn read_client(
    addr: &str,
    seed: u64,
    c: u64,
    start: Instant,
    deadline: Instant,
    tr: Option<&Tracer>,
) -> Result<ClientRun, String> {
    let mut stream = Stream::new(seed, c, true);
    let mut conn = LineConn::connect(addr)?;
    let mut run = ClientRun::default();
    std::thread::sleep(start.saturating_duration_since(Instant::now()));
    let mut seq = 0u64;
    while Instant::now() < deadline {
        let unit = stream.next_unit();
        let req = (c << 32) | seq;
        seq += 1;
        let span = tr.map(|t| t.open("client.unit", 0, req));
        let parent = span.map_or(0, |s| s.id);
        match &unit {
            Unit::Health => {
                let (_, ms) = call(&mut conn, &mut run, r#"{"cmd":"health"}"#, tr, parent, req)?;
                run.health_ms.push(ms);
            }
            Unit::Probe(ops) => {
                call(&mut conn, &mut run, r#"{"cmd":"begin"}"#, tr, parent, req)?;
                for op in ops {
                    call(&mut conn, &mut run, &op.line(), tr, parent, req)?;
                }
                let (_, ms) = call(&mut conn, &mut run, r#"{"cmd":"query"}"#, tr, parent, req)?;
                run.query_ms.push(ms);
                call(&mut conn, &mut run, r#"{"cmd":"abort"}"#, tr, parent, req)?;
            }
            Unit::Commit(ops) => {
                let t0 = Instant::now();
                let mut all_ok =
                    call(&mut conn, &mut run, r#"{"cmd":"begin"}"#, tr, parent, req)?.0;
                for op in ops {
                    all_ok &= call(&mut conn, &mut run, &op.line(), tr, parent, req)?.0;
                }
                all_ok &= call(&mut conn, &mut run, r#"{"cmd":"commit"}"#, tr, parent, req)?.0;
                run.txn_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                if all_ok {
                    stream.ack();
                }
            }
        }
        if let (Some(t), Some(s)) = (tr, span) {
            t.close(s);
        }
        run.done.push(Done { unit, tag: None });
    }
    run.end = Some(Instant::now());
    run.state = stream.state;
    Ok(run)
}

/// Fetch the committed state with `dump`.
pub fn fetch_state(addr: &str) -> Result<State, String> {
    let reply = LineConn::connect(addr)?.call(r#"{"cmd":"dump"}"#)?;
    let v = json::parse(&reply).map_err(|e| format!("dump reply: {e}"))?;
    let rels = v
        .get("rels")
        .and_then(Json::as_arr)
        .ok_or("dump reply has no `rels`")?;
    let mut st = State::new();
    for r in rels {
        let name = r
            .get("rel")
            .and_then(Json::as_str)
            .ok_or("rel without name")?;
        let rows = st.entry(name.to_owned()).or_default();
        for row in r
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or("rel without rows")?
        {
            let vals = row.as_arr().ok_or("row is not an array")?;
            rows.insert(
                vals.iter()
                    .map(|x| x.as_i64().ok_or("non-integer value in dump"))
                    .collect::<Result<Vec<i64>, _>>()?,
            );
        }
    }
    Ok(st)
}

/// Fetch the violation listing of a sessionless `query`.
pub fn fetch_violations(addr: &str) -> Result<BTreeSet<String>, String> {
    let reply = LineConn::connect(addr)?.call(r#"{"cmd":"query"}"#)?;
    let v = json::parse(&reply).map_err(|e| format!("query reply: {e}"))?;
    let list = v
        .get("violations")
        .and_then(Json::as_arr)
        .ok_or("query reply has no `violations`")?;
    Ok(list
        .iter()
        .filter_map(|x| x.as_str().map(str::to_owned))
        .collect())
}

/// The state gate: the server's committed state equals the oracle.
pub fn gate_state(what: &str, got: &State, want: &State) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    for (rel, rows) in want {
        let have = got.get(rel).cloned().unwrap_or_default();
        let missing = rows.difference(&have).count();
        let extra = have.difference(rows).count();
        if missing + extra > 0 {
            let example = rows.difference(&have).chain(have.difference(rows)).next();
            return Err(format!(
                "{what}: {rel} differs from the oracle ({missing} rows missing, {extra} unexpected, e.g. {example:?})"
            ));
        }
    }
    Err(format!("{what}: relation set differs from the oracle"))
}

/// The violation gate: a sessionless `query` equals `full_violations`
/// recomputed from scratch on the oracle state.
pub fn gate_violations(got: &BTreeSet<String>, spec: &Spec, want: &State) -> Result<(), String> {
    let db = gen::database_of(&spec.schema(), want);
    let expected: BTreeSet<String> =
        depkit_solver::incremental::full_violations(&db, &spec.sigma())
            .map_err(|e| format!("full_violations: {e}"))?
            .iter()
            .map(ToString::to_string)
            .collect();
    if *got == expected {
        Ok(())
    } else {
        Err(format!(
            "query: server reports {} violations, full_violations on the oracle {} (e.g. {:?})",
            got.len(),
            expected.len(),
            got.symmetric_difference(&expected).next()
        ))
    }
}

/// Resend the last acknowledged tagged commit of client `id`: it must be
/// answered from the token table with its original generation.
pub fn gate_replay(addr: &str, id: &str, token: &str, generation: u64) -> Result<(), String> {
    let line = format!(
        r#"{{"cmd":"commit","client":{},"token":{}}}"#,
        Json::Str(id.to_owned()),
        Json::Str(token.to_owned())
    );
    let reply = LineConn::connect(addr)?.call(&line)?;
    let v = json::parse(&reply).map_err(|e| format!("replay reply: {e}"))?;
    let replayed = v.get("replayed").and_then(Json::as_bool) == Some(true);
    let gen = v.get("generation").and_then(Json::as_i64);
    if replayed && gen == Some(generation as i64) {
        Ok(())
    } else {
        Err(format!(
            "replay of {id}/{token}: expected replayed generation {generation}, got {reply}"
        ))
    }
}

/// Everything one serve workload run measured.
#[derive(Debug)]
pub struct ServeRun {
    pub write: bool,
    pub spec: Spec,
    pub spec_path: PathBuf,
    pub setup_s: Vec<f64>,
    pub clients: Vec<ClientRun>,
    pub elapsed_s: f64,
    pub recovery_s: Option<f64>,
    /// Sessionless `query` round trips of a traced run's read probes.
    pub probe_query_ms: Vec<f64>,
    /// Every reply the read probes read (`query` and `health`).
    pub probe_replies: Vec<String>,
    /// Gate failures; empty when every check passed.
    pub failures: Vec<String>,
}

impl ServeRun {
    pub fn samples(&self, f: impl Fn(&ClientRun) -> &[f64]) -> Vec<f64> {
        self.clients
            .iter()
            .flat_map(|c| f(c).iter().copied())
            .collect()
    }

    pub fn oracle(&self) -> State {
        let states: Vec<ClientState> = self.clients.iter().map(|c| c.state.clone()).collect();
        gen::serve_oracle(&self.spec, &states)
    }
}

/// Run serve-write (`write`) or serve-read for `seconds`: `spawns` timed
/// server starts (the last one serves the loop), the closed loop, then
/// every correctness gate.
pub fn run(
    write: bool,
    seed: u64,
    seconds: f64,
    depkit: &Path,
    dir: &Path,
    spawns: usize,
    tr: Option<&Tracer>,
) -> Result<ServeRun, String> {
    let spec = gen::serve_seed(seed, !write);
    let spec_path = dir.join("seed.dep");
    std::fs::write(
        &spec_path,
        spec.text(&format!("perfbench serve seed {seed}")),
    )
    .map_err(|e| format!("write {}: {e}", spec_path.display()))?;

    let data_dir = |i: usize| dir.join(format!("data{i}"));
    let mut setup_s = Vec::new();
    let mut server = None;
    for i in 0..spawns.max(1) {
        drop(server.take());
        let dd = write.then(|| data_dir(i));
        let (s, secs) = ServerProc::spawn(depkit, &spec_path, dd.as_deref())?;
        setup_s.push(secs);
        server = Some((s, dd));
    }
    let (server, dd) = server.expect("at least one spawn");
    let addr = server.addr.clone();

    let start = Instant::now() + Duration::from_millis(20);
    let deadline = start + Duration::from_secs_f64(seconds);
    let clients: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = &addr;
                scope.spawn(move || {
                    if write {
                        Ok(write_client(addr, seed, c, start, deadline, tr))
                    } else {
                        read_client(addr, seed, c, start, deadline, tr)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let end = clients.iter().filter_map(|c| c.end).max().unwrap_or(start);
    let elapsed_s = end.duration_since(start).as_secs_f64();

    let mut out = ServeRun {
        write,
        spec,
        spec_path,
        setup_s,
        clients,
        elapsed_s,
        recovery_s: None,
        probe_query_ms: Vec::new(),
        probe_replies: Vec::new(),
        failures: Vec::new(),
    };
    if tr.is_some() {
        let mut conn = LineConn::connect(&addr)?;
        for _ in 0..READ_PROBES {
            let t0 = Instant::now();
            out.probe_replies.push(conn.call(r#"{"cmd":"query"}"#)?);
            out.probe_query_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            out.probe_replies.push(conn.call(r#"{"cmd":"health"}"#)?);
        }
    }

    let oracle = out.oracle();
    let mut check = |r: Result<(), String>| {
        if let Err(e) = r {
            out.failures.push(e);
        }
    };
    check(gate_state("dump", &fetch_state(&addr)?, &oracle));
    check(gate_violations(
        &fetch_violations(&addr)?,
        &out.spec,
        &oracle,
    ));
    if let Some(dd) = dd {
        // Durability: SIGKILL, restart on the same data dir (timed as
        // recovery), and compare against the acknowledged commits.
        drop(server);
        let (server, secs) = ServerProc::spawn(depkit, &out.spec_path, Some(&dd))?;
        out.recovery_s = Some(secs);
        check(gate_state(
            "dump after recovery",
            &fetch_state(&server.addr)?,
            &oracle,
        ));
        for (c, run) in out.clients.iter().enumerate() {
            if let Some((token, gen)) = &run.last_ack {
                check(gate_replay(&server.addr, &format!("c{c}"), token, *gen));
            }
        }
        check(gate_state(
            "dump after replay",
            &fetch_state(&server.addr)?,
            &oracle,
        ));
        drop(server);
    } else {
        drop(server);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use depkit_serve::{ServeConfig, Server};
    use depkit_solver::incremental::CatalogState;

    /// The serve gates, run against a real server that committed one
    /// batch: the true oracle passes; an oracle with one committed row
    /// dropped fails both the state and the violation gate.
    #[test]
    fn serve_gates_reject_an_oracle_missing_a_committed_row() {
        let spec = gen::serve_seed(5, true);
        let cat = CatalogState::new(&spec.schema(), &spec.sigma()).unwrap();
        cat.seed(&spec.database()).unwrap();
        let server = Server::start(cat, "127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.local_addr().to_string();

        let mut stream = Stream::new(5, 0, true);
        let mut client = ResilientClient::new(&addr, "c0");
        let ops = loop {
            if let Unit::Commit(ops) = stream.next_unit() {
                break ops;
            }
        };
        let lines: Vec<String> = ops.iter().map(Op::line).collect();
        let ack = client.commit_batch(&lines).unwrap();
        stream.ack();
        let oracle = gen::serve_oracle(&spec, &[stream.state.clone()]);

        let got = fetch_state(&addr).unwrap();
        let violations = fetch_violations(&addr).unwrap();
        gate_state("dump", &got, &oracle).unwrap();
        gate_violations(&violations, &spec, &oracle).unwrap();
        gate_replay(&addr, "c0", "t0", ack.generation).unwrap();
        assert!(gate_replay(&addr, "c0", "t0", ack.generation + 1).is_err());

        // Drop the row the client committed from the oracle.
        let (eid, dno) = stream.state.hires[0];
        let mut wrong = oracle.clone();
        assert!(wrong.get_mut("EMP").unwrap().remove(&vec![eid, dno]));
        assert!(gate_state("dump", &got, &wrong).is_err());
        // Drop a planted dangling employee: the violation set changes.
        let mut wrong = oracle.clone();
        assert!(wrong.get_mut("EMP").unwrap().remove(&vec![200_000, 20_000]));
        assert!(gate_violations(&violations, &spec, &wrong).is_err());
        server.stop().unwrap();
    }
}
