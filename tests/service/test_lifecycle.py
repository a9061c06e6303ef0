"""Daemon lifecycle over real processes: sockets, SIGKILL, drain.

These tests spawn ``python -m repro serve`` as a subprocess, talk to
it over its unix socket, kill it without warning, and prove that the
journal makes the daemon's queue durable: a restart with ``--resume
--drain-exit`` executes exactly the in-flight work and its journaled
results equal an uninterrupted run's.
"""

import json
import os
import pathlib
import re
import signal
import socket
import subprocess
import sys
import time

import pytest

import repro
from repro.parallel.journal import Journal
from repro.service.client import SocketClient

BENCH = "3-5 RNS"
SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)


def daemon_env():
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return env


def start_daemon(tmp_path, *extra):
    sock = tmp_path / "svc.sock"
    sock.unlink(missing_ok=True)  # stale socket from a killed daemon
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", str(sock), *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        cwd=tmp_path,
        env=daemon_env(),
    )
    deadline = time.monotonic() + 30
    while not sock.exists():
        if proc.poll() is not None:
            out = proc.stdout.read().decode()
            raise AssertionError(f"daemon died on start:\n{out}")
        if time.monotonic() > deadline:
            proc.kill()
            raise AssertionError("daemon never created its socket")
        time.sleep(0.05)
    return proc, sock


def stop_daemon(proc, sock):
    if proc.poll() is None:
        try:
            with SocketClient(sock, timeout=10) as client:
                client.call("shutdown")
        except Exception:
            proc.kill()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class TestSocketTransport:
    def test_ping_query_stats_shutdown(self, tmp_path):
        proc, sock = start_daemon(tmp_path)
        try:
            with SocketClient(sock) as client:
                ping = client.call("ping")
                assert ping["ok"]
                assert ping["result"]["protocol"] == "repro-query-v4"
                assert ping["result"]["pid"] == proc.pid

                reply = client.call("width_reduce", {"benchmark": BENCH})
                assert reply["ok"], reply
                assert reply["meta"]["shard"] == "rns"
                assert reply["result"]["max_width_after"] <= reply["result"][
                    "max_width_before"
                ]

                stats = client.call("stats")["result"]
                assert stats["schema"] == "repro-bench-v11"
                assert stats["executed"] == 1

                bad = client.call("width_reduce", {"benchmark": "nonsense"})
                assert not bad["ok"]
                assert bad["error"]["type"] == "BenchmarkError"

                # The malformed-line error must not poison the stream.
                client._sock.sendall(b"this is not json\n")
                err = client.recv()
                assert err["ok"] is False
                assert err["error"]["type"] == "ProtocolError"
                assert client.call("ping")["ok"]
        finally:
            stop_daemon(proc, sock)
        assert proc.wait(timeout=30) == 0

    def test_cli_query_roundtrip(self, tmp_path):
        proc, sock = start_daemon(tmp_path)
        try:
            out = subprocess.run(
                [
                    sys.executable, "-m", "repro", "query", "width_reduce",
                    "--socket", str(sock), "--benchmark", BENCH,
                ],
                capture_output=True,
                text=True,
                timeout=120,
                env=daemon_env(),
            )
            assert out.returncode == 0, out.stderr
            doc = json.loads(out.stdout)
            assert doc["ok"]
            assert doc["result"]["cf"]["name"]
        finally:
            stop_daemon(proc, sock)


class TestKillRestartDurability:
    def test_sigkill_resume_drain_matches_uninterrupted_run(self, tmp_path):
        """The tentpole durability criterion, end to end.

        Queries journaled as in-flight when the daemon is SIGKILL'd are
        re-executed by ``--resume --drain-exit``, and the drained
        journal's results equal those of an identical daemon that was
        never killed.
        """
        queries = [
            {"id": "a", "op": "width_reduce", "params": {"benchmark": "3-5 RNS"}},
            {"id": "b", "op": "decompose",
             "params": {"benchmark": "3-5-7 RNS", "cut_height": 4}},
        ]

        # -- interrupted run ------------------------------------------
        kill_journal = tmp_path / "killed.journal"
        proc, sock = start_daemon(tmp_path, "--journal", str(kill_journal))
        client = SocketClient(sock)
        for doc in queries:
            client.send(doc)  # enqueue, do not wait
        # Wait until both attempts are journaled (fsync'd), then kill.
        deadline = time.monotonic() + 30
        while True:
            text = kill_journal.read_text() if kill_journal.exists() else ""
            if text.count('"type":"attempt"') >= len(queries):
                break
            assert time.monotonic() < deadline, "attempts never journaled"
            time.sleep(0.02)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        client.close()

        drained = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve",
                "--journal", str(kill_journal), "--resume", "--drain-exit",
            ],
            capture_output=True,
            text=True,
            timeout=300,
            env=daemon_env(),
        )
        assert drained.returncode == 0, drained.stderr

        # -- uninterrupted reference run ------------------------------
        clean_journal = tmp_path / "clean.journal"
        proc2, sock2 = start_daemon(tmp_path, "--journal", str(clean_journal))
        try:
            with SocketClient(sock2) as c2:
                for doc in queries:
                    reply = c2.call(doc["op"], doc["params"])
                    assert reply["ok"], reply
        finally:
            stop_daemon(proc2, sock2)

        # -- equivalence ----------------------------------------------
        with Journal(kill_journal, resume=True) as jk:
            assert jk.pending() == []  # the drain finished everything
            killed_results = {k: r.result for k, r in jk.results().items()}
        with Journal(clean_journal, resume=True) as jc:
            clean_results = {k: r.result for k, r in jc.results().items()}
        assert killed_results == clean_results
        assert len(killed_results) == len(queries)

    def test_drain_exit_is_noop_on_clean_journal(self, tmp_path):
        journal = tmp_path / "svc.journal"
        proc, sock = start_daemon(tmp_path, "--journal", str(journal))
        try:
            with SocketClient(sock) as client:
                assert client.call("width_reduce", {"benchmark": BENCH})["ok"]
        finally:
            stop_daemon(proc, sock)
        drained = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve",
                "--journal", str(journal), "--resume", "--drain-exit",
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env=daemon_env(),
        )
        assert drained.returncode == 0, drained.stderr
        assert "drained 0" in drained.stdout


class TestWarmVsColdProcesses:
    def test_warm_daemon_beats_two_cold_runs(self, tmp_path):
        """Two identical queries against one daemon: the shard counter
        delta of the second shows a strictly higher computed-table hit
        rate than the first (which is exactly what two cold one-shot
        processes would each pay)."""
        proc, sock = start_daemon(tmp_path)
        try:
            with SocketClient(sock) as client:
                def rates():
                    counters = client.call("stats")["result"]["shards"].get(
                        "rns", {"counters": {}}
                    )["counters"]
                    return (
                        counters.get("cache_hits", 0),
                        counters.get("cache_misses", 0),
                    )

                assert client.call("width_reduce", {"benchmark": BENCH})["ok"]
                h1, m1 = rates()
                # A repeat without invalidation never reaches the
                # engine: it is a cross-request result-cache hit.
                repeat = client.call("width_reduce", {"benchmark": BENCH})
                assert repeat["ok"] and repeat["meta"]["cached"]
                hc, mc = rates()
                assert (hc, mc) == (h1, m1)
                # Invalidate, then repeat: now the engine runs again,
                # on warm computed tables.
                assert client.call("invalidate")["ok"]
                rerun = client.call("width_reduce", {"benchmark": BENCH})
                assert rerun["ok"] and not rerun["meta"].get("cached")
                h2, m2 = rates()
                cache = client.call("stats")["result"]["result_cache"]
                assert cache["hits"] >= 1
                assert cache["invalidations"] >= 1
        finally:
            stop_daemon(proc, sock)
        cold_rate = h1 / (h1 + m1)
        warm_rate = (h2 - h1) / ((h2 - h1) + (m2 - m1))
        assert warm_rate > cold_rate, (cold_rate, warm_rate)


class TestClientConnectRetry:
    def test_client_retries_until_socket_binds(self, tmp_path):
        """``repro query`` racing ``repro serve`` at startup is normal:
        the client retries with backoff instead of failing on the first
        connection refusal."""
        import socket as socket_mod
        import threading

        path = tmp_path / "late.sock"
        served = {}

        def bind_late():
            time.sleep(0.3)
            srv = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
            srv.bind(str(path))
            srv.listen(1)
            conn, _ = srv.accept()
            served["connected"] = True
            conn.close()
            srv.close()

        thread = threading.Thread(target=bind_late)
        thread.start()
        try:
            client = SocketClient(path, connect_timeout=10.0)
            client.close()
        finally:
            thread.join()
        assert served.get("connected")

    def test_connect_timeout_raises_service_error(self, tmp_path):
        from repro.errors import ServiceError

        t0 = time.monotonic()
        with pytest.raises(ServiceError, match="cannot connect"):
            SocketClient(tmp_path / "never.sock", connect_timeout=0.2)
        assert time.monotonic() - t0 >= 0.2

    def test_read_timeout_raises_service_error(self, tmp_path):
        """A wedged server surfaces as an error, not a client hang."""
        import socket as socket_mod

        from repro.errors import ServiceError

        path = tmp_path / "mute.sock"
        srv = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
        srv.bind(str(path))
        srv.listen(1)
        try:
            client = SocketClient(path, timeout=0.2)
            client.send({"id": "x", "op": "ping", "params": {}})
            with pytest.raises(ServiceError, match="timed out"):
                client.recv()
            client.close()
        finally:
            srv.close()


class TestWorkerProcessDurability:
    def test_sigkill_one_worker_daemon_recovers_transparently(self, tmp_path):
        """The PR 8 durability criterion: SIGKILL of a single worker
        process (not the daemon) is invisible to clients — the daemon
        rebuilds the worker and the next query succeeds."""
        proc, sock = start_daemon(tmp_path, "--workers", "2")
        try:
            with SocketClient(sock, timeout=120) as client:
                first = client.call("width_reduce", {"benchmark": BENCH})
                assert first["ok"], first
                stats = client.call("stats")["result"]
                worker = stats["workers"]["processes"]["rns"]
                assert worker["alive"] and worker["pid"] != proc.pid
                os.kill(worker["pid"], signal.SIGKILL)

                # Different params so the result cache cannot mask a
                # broken engine path (cache was invalidated anyway).
                again = client.call(
                    "width_reduce", {"benchmark": BENCH, "sift": False}
                )
                assert again["ok"], again
                after = client.call("stats")["result"]
                rebuilt = after["workers"]["processes"]["rns"]
                assert rebuilt["alive"]
                assert rebuilt["pid"] != worker["pid"]
                assert rebuilt["restarts"] == 1
                assert after["result_cache"]["invalidations"] >= 1
        finally:
            stop_daemon(proc, sock)
        assert proc.wait(timeout=30) == 0


    def test_sigkilled_daemon_takes_its_workers_with_it(self, tmp_path):
        """A worker must not outlive a SIGKILLed daemon.  Each worker
        sees EOF on its pipe once no process holds the daemon's end,
        and exits; reparented workers may linger only as zombies."""
        proc, sock = start_daemon(tmp_path, "--workers", "2")
        pids: list[int] = []
        try:
            with SocketClient(sock, timeout=120) as client:
                for bench in (BENCH, "3-digit decimal adder"):
                    reply = client.call("width_reduce", {"benchmark": bench})
                    assert reply["ok"], reply
                procs = client.call("stats")["result"]["workers"]["processes"]
            pids = [procs[family]["pid"] for family in ("rns", "decimal")]
            assert len(set(pids)) == 2 and proc.pid not in pids
            proc.kill()
            proc.wait(timeout=30)
            deadline = time.monotonic() + 5.0
            while live_pids(pids) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert live_pids(pids) == []
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for pid in live_pids(pids):
                os.kill(pid, signal.SIGKILL)


class TestWorkerListeners:
    @pytest.mark.skipif(
        not pathlib.Path("/proc/net/unix").exists(), reason="needs Linux /proc"
    )
    def test_forked_worker_holds_no_listener(self, tmp_path):
        """A shard worker is forked after the daemon bound its listeners,
        by a query on an open client connection.  It must keep neither
        open: a worker that outlives a SIGKILLed daemon would keep the
        dead socket accepting connections and the HTTP port bound, and
        one holding the connection keeps it open after the daemon
        closed it."""
        proc, sock = start_daemon(
            tmp_path, "--http", "127.0.0.1:0", "--workers", "1"
        )
        try:
            port = http_port(proc)
            with SocketClient(sock, timeout=120) as client:
                reply = client.call("width_reduce", {"benchmark": BENCH})
                assert reply["ok"], reply
                procs = client.call("stats")["result"]["workers"]["processes"]
                worker = procs["rns"]["pid"]
                # The daemon's end of the connection the worker was
                # forked for, still open.
                (connection,) = unix_connection_inodes(sock) & socket_inodes(proc.pid)
                sockets = {
                    "unix": unix_listener_inode(sock),
                    "http": tcp_listener_inode(port),
                    "connection": connection,
                }
                # The probe sees every socket in the daemon itself ...
                assert set(sockets.values()) <= socket_inodes(proc.pid)
                # ... and none in its worker.
                held = socket_inodes(worker)
                assert [name for name, inode in sockets.items() if inode in held] == []
        finally:
            stop_daemon(proc, sock)
        assert proc.wait(timeout=30) == 0

    def test_http_reply_reaches_eof_when_its_request_forks_a_worker(self, tmp_path):
        """The first query of a family forks its shard worker while the
        HTTP connection is open, so the worker inherits the accepted
        socket; the reply must still end in EOF, not wait for the
        worker to exit."""
        proc, sock = start_daemon(tmp_path, "--http", "127.0.0.1:0")
        try:
            port = http_port(proc)
            line = json.dumps(
                {"id": "w", "op": "width_reduce", "params": {"benchmark": BENCH}}
            ).encode() + b"\n"
            with socket.create_connection(("127.0.0.1", port), timeout=120) as conn:
                conn.sendall(
                    b"POST /query HTTP/1.1\r\nHost: localhost\r\n"
                    + f"Content-Length: {len(line)}\r\n\r\n".encode()
                    + line
                )
                raw = conn.recv(65536)  # waits out the cold build
                conn.settimeout(10)
                try:
                    while chunk := conn.recv(65536):
                        raw += chunk
                except socket.timeout:
                    pytest.fail(f"no EOF within 10 s after {len(raw)} reply bytes")
            body = raw.partition(b"\r\n\r\n")[2]
            assert raw.startswith(b"HTTP/1.1 200 OK")
            assert json.loads(body)["ok"], body
        finally:
            stop_daemon(proc, sock)
        assert proc.wait(timeout=30) == 0


def http_port(proc) -> int:
    """The HTTP port from the daemon's ``serving on`` banner."""
    while True:
        line = proc.stdout.readline().decode()
        assert line, "daemon exited before its banner"
        match = re.search(r"http 127\.0\.0\.1:(\d+)", line)
        if match:
            return int(match.group(1))


def socket_inodes(pid: int) -> set[int]:
    """Inodes of the sockets process ``pid`` holds open."""
    inodes = set()
    for fd in pathlib.Path(f"/proc/{pid}/fd").iterdir():
        try:
            target = os.readlink(fd)
        except OSError:
            continue  # closed between listing and reading
        if target.startswith("socket:["):
            inodes.add(int(target[len("socket:[") : -1]))
    return inodes


def unix_listener_inode(path: pathlib.Path) -> int:
    """Inode of the listening unix socket bound at ``path``."""
    # Num RefCount Protocol Flags Type St Inode Path; flag 0x10000 is
    # __SO_ACCEPTCON, set on listening sockets.
    for line in pathlib.Path("/proc/net/unix").read_text().splitlines()[1:]:
        fields = line.split()
        if len(fields) > 7 and fields[7] == str(path) and int(fields[3], 16) & 0x10000:
            return int(fields[6])
    raise AssertionError(f"no listening unix socket at {path}")


def unix_connection_inodes(path: pathlib.Path) -> set[int]:
    """Inodes of the connected unix sockets accepted at ``path``."""
    # St 03 is SS_CONNECTED; an accepted socket carries its listener's path.
    return {
        int(fields[6])
        for line in pathlib.Path("/proc/net/unix").read_text().splitlines()[1:]
        if len(fields := line.split()) > 7 and fields[7] == str(path) and fields[5] == "03"
    }


def tcp_listener_inode(port: int) -> int:
    """Inode of the IPv4 TCP socket listening on ``port``."""
    # sl local_address rem_address st ... inode; st 0A is LISTEN.
    for line in pathlib.Path("/proc/net/tcp").read_text().splitlines()[1:]:
        fields = line.split()
        if int(fields[1].split(":")[1], 16) == port and fields[3] == "0A":
            return int(fields[9])
    raise AssertionError(f"no TCP listener on port {port}")


def live_pids(pids: list[int]) -> list[int]:
    """The pids still running: neither gone nor a zombie."""
    alive = []
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        try:
            stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue  # exited between the two probes
        if stat.rsplit(")", 1)[1].split()[0] != "Z":
            alive.append(pid)
    return alive


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_sigkill_available():
    """Guard: the durability tests above assume a POSIX SIGKILL."""
    assert signal.SIGKILL
