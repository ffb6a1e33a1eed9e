"""One sample of a workload, in a fresh interpreter.

    python3 perfbench/sample.py MODE SRC SPANS -- CLI-ARGS...

MODE is one of
  plain   time ``hetnetsim.cli.main(CLI-ARGS)``, nothing instrumented;
  traced  the same with spans.WRAPS installed, spans saved to SPANS;
  probe   stop as soon as the workload is ready to simulate (the first
          layout has been built) and report when that was;
  reference
          time reference() instead; hetnetsim is not imported.

The last line of standard output is one JSON record.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter


class _Ready(BaseException):
    """Unwinds the CLI once set-up is done; cli.main catches only Exception."""

    def __init__(self, at: float):
        super().__init__(at)
        self.at = at


def _environment(kernels) -> dict:
    import numpy
    import yaml

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "using_numba": bool(kernels.USING_NUMBA),
    }


def reference() -> None:
    """A fixed computation, independent of hetnetsim, that loads the host
    the way the workloads do, in about equal parts: numpy on arrays of
    tens of MB, small-array numpy steps in a Python loop, and Python
    tuples formatted as CSV lines.  It takes 0.2-0.3 s on a 2-vCPU host."""
    import numpy as np

    rng = np.random.default_rng(12345)
    users = rng.random((8000, 2)) * 500.0
    picos = rng.random((200, 2)) * 500.0
    d2 = ((users[:, None, :] - picos[None, :, :]) ** 2).sum(axis=2)
    acc = float((d2 < 400.0).sum())
    users, picos = users[:1000].copy(), picos[:28]
    for _ in range(60):
        users += rng.normal(0.0, 1.0, users.shape)
        d2 = ((users[:, None, :] - picos[None, :, :]) ** 2).sum(axis=2)
        acc += float(np.log2(1.0 + d2[d2 < 2500.0]).sum())
        for j in range(28):
            acc += (j * 1.5) % 7
    xs = users[:, 0].tolist()
    rows = [(i, k, xs[k], k % 3 == 0) for i in range(40) for k in range(1000)]
    "\n".join(f"{a},{b},{c!r},{int(d)}" for a, b, c, d in rows)


def main(argv: list[str]) -> dict:
    mode, src, spans_path, sep, *cli_args = argv
    if sep != "--" or mode not in ("plain", "traced", "probe", "reference"):
        raise SystemExit(__doc__)
    if mode == "reference":
        import numpy  # noqa: F401  (imported before the clock starts)

        t0 = perf_counter()
        reference()
        return {"ref_s": perf_counter() - t0}
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import hetnetsim
    from hetnetsim import cli, engine, kernels

    if src not in Path(hetnetsim.__file__).resolve().parents:
        raise SystemExit(f"imported {hetnetsim.__file__}, not the package in {src}")
    record = {"env": _environment(kernels)}

    if mode == "probe":
        build = engine.build_geometry

        def build_then_stop(*args, **kwargs):
            build(*args, **kwargs)
            raise _Ready(perf_counter())

        engine.build_geometry = build_then_stop
        try:
            cli.main(cli_args)
        except _Ready as ready:
            record["ready"] = ready.at
        return record

    run = cli.main
    if mode == "traced":
        import spans

        tracer = spans.Tracer()
        record["absent"] = tracer.install("hetnetsim")
        run = tracer.wrap(cli.main, spans.ROOT_SPAN)
    t0 = perf_counter()
    record["rc"] = run(cli_args)
    record["wall_s"] = perf_counter() - t0
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if mode == "traced":
        tracer.save(spans_path)
    return record


if __name__ == "__main__":
    result = main(sys.argv[1:])
    print(json.dumps(result), flush=True)
