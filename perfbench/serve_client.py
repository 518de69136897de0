"""`concord serve` process control and a blocking text-protocol client."""

import os
import shutil
import socket
import subprocess
import time


class Server:
    """One `concord serve --listen 127.0.0.1:0` child process."""

    def __init__(self, concord, args, log_path):
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen([concord, "serve", "--listen", "127.0.0.1:0", *args],
                                     stdout=subprocess.PIPE, stderr=self.log, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("listening on "):
            self.stop()
            raise RuntimeError(f"serve did not start: {line!r}; see {log_path}")
        host, port = line.split()[-1].rsplit(":", 1)
        self.addr = (host, int(port))

    def peak_rss_kib(self):
        """VmHWM of the server: its peak resident set so far."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self):
        """Terminates the server and waits until it has exited."""
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.log.close()


class Client:
    """One TCP connection speaking the line protocol, closed loop."""

    def __init__(self, addr):
        self.sock = socket.create_connection(addr, timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def _line(self):
        while True:
            nl = self.buf.find(b"\n")
            if nl >= 0:
                line, self.buf = self.buf[: nl + 1], self.buf[nl + 1:]
                return line
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf += chunk

    def request(self, payload, multiline=False):
        """Sends one request; returns (status line, body lines, round trip s).

        `multiline` reads CHECK's violation lines until its `ok check` or
        `err` status line; every other verb answers with one line.
        """
        start = time.perf_counter()
        self.sock.sendall(payload)
        body = []
        while True:
            line = self._line()
            if not multiline or line.startswith(b"ok check ") or line.startswith(b"err "):
                return line, body, time.perf_counter() - start
            body.append(line)

    def close(self):
        try:
            self.sock.sendall(b"QUIT\n")
            self._line()
        except OSError:
            pass
        self.sock.close()


def upsert_payload(name, text):
    return b"UPSERT " + name.encode() + b"\n" + text.encode() + b".\n"


def clear_dir(path):
    """Removes and recreates a state directory."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
