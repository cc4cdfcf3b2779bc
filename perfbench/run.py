"""One benchmark run: a workload against the program, checked, as one JSON line.

    python3 perfbench/run.py --workload edge_cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the workload and
prints the end-to-end metrics.  ``--trace 1`` measures it the same way,
then repeats it with the same seed under span wrappers, and prints the
per-layer ledger: figures read from the program's public outputs come
from the first pass, span self times and counts from the second, and
the difference between the two passes' end-to-end figures is the
tracing overhead.  Every pass checks the program's outputs after its
timed phase; the run exits non-zero when a check fails.  The last line
of standard output is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("edge_cold", "edge_warm", "onchip_loop")
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
    "readings_per_s": "readings/s",
    "cpu_us_per_reading": "us",
    "peak_rss_mb": "MB",
}
# name -> unit; BENCHMARK.json lists the same names.
LAYERS = {
    "client.encode_us": "us",
    "client.decode_us": "us",
    "edge.transport_ms": "ms",
    "edge.request_ms": "ms",
    "edge.cpu_us_per_request": "us",
    "edge.bytes_per_request": "bytes",
    "edge.ingest_us": "us",
    "edge.busiest_shard_share": "ratio",
    "edge.ipc_ms": "ms",
    "edge.reads_per_ipc_message": "reads",
    "serve.queue_wait_ms": "ms",
    "serve.batch_size": "requests",
    "serve.batches": "1/req",
    "serve.rejected": "1/req",
    "serve.shed": "1/req",
    "serve.cache_hit_ratio": "ratio",
    "serve.cache_expirations": "1/req",
    "serve.cache_evictions": "1/req",
    "serve.worker_ms": "ms",
    "serve.execute_ms": "ms",
    "batch.read_paired_ms": "ms",
    "batch.lanes": "lanes",
    "batch.calibrate_ms": "ms",
    "batch.calibration_rounds": "rounds",
    "batch.frequency_calls": "calls",
    "thermal.step_ms": "ms",
    "core.read_ms": "ms",
    "core.extract_ms": "ms",
    "core.temperature_ms": "ms",
    "core.calibration_rounds": "rounds",
    "readout.frame_us": "us",
    "tsv.collect_us": "us",
    "network.poll_ms": "ms",
    "network.decide_us": "us",
    "loadgen.late_ms": "ms",
    "trace.overhead_p50_ms": "ms",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured phase length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _deadline(_signum, _frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


def _span_layers(dumps, window, requests: int) -> dict:
    """Per-layer figures from the traced pass's spans and counts."""
    import spans

    self_s = spans.self_times(dumps, *window)
    counts = spans.counter_totals(dumps, *window)

    def per_request(name: str, scale: float) -> float:
        return self_s.get(name, [0.0, 0])[0] / requests * scale

    def calls(name: str) -> int:
        return self_s.get(name, [0.0, 0])[1]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def total(name: str) -> float:
        return counts.get(name, [0.0, 0])[0]

    def events(name: str) -> int:
        return counts.get(name, [0.0, 0])[1]

    return {
        "client.encode_us": per_request("client.encode", 1e6),
        "client.decode_us": per_request("client.decode", 1e6),
        "edge.ingest_us": per_request("edge.ingest", 1e6),
        "serve.queue_wait_ms": ratio(total("serve.queue_wait_s"), events("serve.queue_wait_s")) * 1e3,
        "serve.execute_ms": per_request("serve.execute", 1e3),
        "batch.read_paired_ms": per_request("batch.read_paired", 1e3),
        "batch.lanes": ratio(total("batch.lanes"), calls("batch.read_paired")),
        "batch.calibrate_ms": per_request("batch.calibrate", 1e3),
        "batch.calibration_rounds": ratio(events("batch.rounds"), calls("batch.calibrate")),
        "batch.frequency_calls": ratio(events("batch.frequency_calls"), calls("batch.read_paired")),
        "thermal.step_ms": per_request("thermal.step", 1e3),
        "core.read_ms": per_request("core.read", 1e3),
        "core.extract_ms": per_request("core.extract", 1e3),
        "core.temperature_ms": per_request("core.temperature", 1e3),
        "core.calibration_rounds": ratio(events("core.rounds"), calls("core.read")),
        "readout.frame_us": per_request("readout.frame", 1e6),
        "tsv.collect_us": per_request("tsv.collect", 1e6),
        "network.poll_ms": per_request("network.poll", 1e3),
        "network.decide_us": per_request("network.decide", 1e6),
    }


def _run_pass(workload: str, seed: int, seconds: float, traced: bool, out_dir: Path):
    """One pass; returns ``(pass result, span dumps)``."""
    import spans

    recorder = None
    if traced:
        recorder = spans.Recorder()
        if workload == "onchip_loop":
            spans.install_onchip(recorder)
        else:
            spans.install_client(recorder)
    if workload == "onchip_loop":
        import onchip_loop

        result = onchip_loop.run_pass(seed, seconds, cold=not traced)
        files = []
    else:
        import edge_load

        result = edge_load.run_pass(ROOT, out_dir, workload, seed, seconds, traced)
        files = result.span_files
    if recorder is None:
        return result, []
    own = out_dir / "spans" / "loadgen.json"
    recorder.dump(str(own))
    return result, spans.load(files + [str(own)])


def _print_table(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)

    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    plain, _ = _run_pass(args.workload, args.seed, args.seconds, False, out_dir / "plain")
    passes = [plain]
    _print_table(f"{args.workload} seed {args.seed}: end-to-end", plain.end_to_end, END_TO_END)
    print(
        f"silicon floor (simulated, from the answers): "
        f"{plain.silicon['conversion_us']:.3f} us and {plain.silicon['energy_pj']:.1f} pJ "
        f"per conversion; measured {plain.end_to_end['cpu_us_per_reading']:.1f} us of CPU per reading"
    )
    metrics = {name: {"value": plain.end_to_end[name], "unit": unit} for name, unit in END_TO_END.items()}
    if args.trace:
        traced, dumps = _run_pass(args.workload, args.seed, args.seconds, True, out_dir / "traced")
        passes.append(traced)
        _print_table("traced pass: end-to-end", traced.end_to_end, END_TO_END)
        # Set-up and peak memory are left out: the traced edge forks its
        # workers, and a second in-process pass is neither cold nor fresh.
        overhead = {
            name: traced.end_to_end[name] - plain.end_to_end[name]
            for name in END_TO_END
            if name not in ("setup_s", "peak_rss_mb")
        }
        _print_table("tracing overhead (traced - untraced)", overhead, END_TO_END)
        layers = dict.fromkeys(LAYERS, 0.0)
        layers.update(plain.layers)
        requests = traced.attempted - traced.failed
        layers.update(_span_layers(dumps, traced.window, max(1, requests)))
        layers["trace.overhead_p50_ms"] = overhead["request_p50_ms"]
        _print_table("per-layer ledger", layers, LAYERS)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYERS.items()}
    failures = [message for p in passes for message in p.failures]
    for message in failures:
        print(f"CHECK FAILED {message}")
    signal.alarm(0)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
