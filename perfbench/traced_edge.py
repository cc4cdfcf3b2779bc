"""Start ``python -m repro`` with the traced run's span wrappers installed.

    python3 perfbench/traced_edge.py SPANS_DIR edge --shards 2 --tiers 8 --start-method fork

The wrappers are installed in this process before the program starts.
Shard workers must start with ``--start-method fork`` so they inherit
them: under the default ``spawn`` a worker begins in a fresh interpreter
and would run unwrapped.  Each process writes its spans into
``SPANS_DIR`` when it ends: a worker when it shuts down, this process
when the program returns.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402


def main(argv) -> int:
    spans_dir, program_args = argv[0], argv[1:]
    recorder = spans.Recorder()
    spans.install_edge(recorder)
    spans.install_worker(recorder)

    from repro.edge import supervisor

    worker_main = supervisor.worker_main

    def traced_worker_main(config, conn) -> None:
        recorder.reset()  # a forked worker starts with its parent's buffer
        try:
            worker_main(config, conn)
        finally:
            recorder.dump(os.path.join(spans_dir, f"worker-{config.shard_index}-{os.getpid()}.json"))

    # ShardPool looks the target up in its own module at spawn time.
    supervisor.worker_main = traced_worker_main

    from repro.__main__ import main as program_main

    try:
        return program_main(program_args)
    finally:
        recorder.dump(os.path.join(spans_dir, f"edge-{os.getpid()}.json"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
