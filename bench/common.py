"""Paths, the child-process launcher and the source fingerprint."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"


def child_env():
    """Environment for CLI child processes: the checkout's src on the path."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


class Launcher:
    """Runs ``python3 ARGS`` children through launcher.py; use as a context.

    run() returns (exit code, stdout, stderr, wall seconds, peak RSS MB).
    """

    def __init__(self, env):
        self.env = env

    def __enter__(self):
        OUT.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "bench" / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT, env=self.env)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, args):
        request = {"args": list(args), "env": self.env, "cwd": str(ROOT),
                   "tmp": str(OUT)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return (reply["code"], reply["stdout"], reply["stderr"],
                reply["seconds"], reply["rss_mb"])

    def run_cli(self, args):
        """``python3 -m fblrelay.cli ARGS``."""
        return self.run(["-m", "fblrelay.cli", *args])


def source_hash():
    """sha256 over src/**/*.py, standing in for the commit id in a checkout."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]
