"""CLI smoke test: ``python -m repro.server`` boots, serves, drains on SIGTERM."""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.server.cli import main

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def test_boot_serve_sigterm_drain(tmp_path):
    port_file = tmp_path / "port"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.server",
            "--port",
            "0",
            "--port-file",
            str(port_file),
            "--workers",
            "2",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        deadline = time.time() + 30
        while not port_file.exists() and time.time() < deadline:
            assert process.poll() is None, process.stderr.read().decode()
            time.sleep(0.05)
        assert port_file.exists(), "server never wrote its port file"
        port = int(port_file.read_text().strip())
        base = f"http://127.0.0.1:{port}"

        with urllib.request.urlopen(f"{base}/healthz", timeout=10) as response:
            assert json.loads(response.read())["status"] == "ok"

        body = json.dumps({"csv": "a,b\n1,x\n2,y\n", "name": "smoke"}).encode()
        request = urllib.request.Request(
            f"{base}/v1/jobs", data=body, headers={"Content-Type": "application/json"}
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            job_id = json.loads(response.read())["job_id"]

        # SIGTERM while the job may still be queued: the drain must let it
        # finish before the process exits.
        process.send_signal(signal.SIGTERM)
        _, stderr = process.communicate(timeout=60)
        assert process.returncode == 0, stderr.decode()
        assert b"drained and stopped" in stderr
        assert job_id >= 1
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()


def test_removed_chunk_rows_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--chunk-rows", "100"])
    assert exit_info.value.code == 2
    assert "--chunk-rows" in capsys.readouterr().err
