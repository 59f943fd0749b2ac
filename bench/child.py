"""Run one experiment config in a fresh interpreter and report where its time went.

Usage: python3 bench/child.py CONFIG BASE_DIR plain|trace OUT_JSON

The parent (bench/run.py) sets PYTHONPATH to the checkout's ``src`` and pins
BLAS/OpenMP to one thread.  The experiment runs through bitbandit's public
entry points, ``harness.load_config`` then ``harness.run_experiment``; nothing
in the package is re-implemented.  Timestamps use ``time.monotonic``, the
system-wide clock the parent also reads, so the parent can measure from before
this interpreter started.

In ``trace`` mode the layers are timed from outside: each public function is
replaced, at the name the simulation loops look it up by, with a wrapper that
records a span.  A span's self time is its duration minus the time of spans
nested in it.  The wrappers also keep the played, decoded and reconstructed
contexts; after the run they are checked against the quantizer's guarantees
round by round, outside the timed region.
"""

import functools
import json
import math
import resource
import sys
import time
from collections import defaultdict


class Tracer:
    """Span recorder: per-layer call counts, self time and inclusive time in ns."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self._stack = []  # [layer, ns spent in nested spans]

    def wrap(self, layer, fn, absorbed_under=(), on_return=None):
        """``fn`` timed as ``layer``.

        A call made directly inside a span named in ``absorbed_under`` is that
        span's own work (the greedy argmax inside the xstar enumeration, the
        scalar quantizer inside quantize_context) and records nothing.
        ``on_return(args, result)`` runs after the span is closed.
        """
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] in absorbed_under:
                return fn(*args, **kwargs)
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                self.calls[layer] += 1
                self.self_ns[layer] += span - frame[1]
                self.incl_ns[layer] += span
                if stack:
                    stack[-1][1] += span
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def report(self) -> dict:
        return {layer: {"calls": self.calls[layer], "self_ns": self.self_ns[layer],
                        "incl_ns": self.incl_ns[layer]} for layer in self.calls}


def install_tracer(tracer, observed):
    """Wrap every traced layer where the simulation loops look it up."""
    from bitbandit import codec, env, harness, known, quantizer, unknown

    def patch(owners, attr, layer, **kw):
        fn = getattr(owners[0], attr)
        wrapped = tracer.wrap(layer, fn, **kw)
        for owner in owners:
            setattr(owner, attr, wrapped)

    def patch_method(cls, attr, layer, **kw):
        setattr(cls, attr, tracer.wrap(layer, getattr(cls, attr), **kw))

    def keep(key, pick):
        return lambda args, result: observed[key].append(pick(args, result))

    patch([env], "sample_context", "env.sample_context")
    patch([env], "realize_reward", "env.realize_reward")
    patch([known, unknown], "regret_step", "env.regret_step")
    patch([unknown], "quantize_context", "quantizer.quantize_context",
          on_return=keep("played", lambda a, r: a[0]))
    # StochasticQuantizer.encode outside quantize_context is the reward bit
    patch_method(quantizer.StochasticQuantizer, "encode", "quantizer.reward_bit",
                 absorbed_under=("quantizer.quantize_context",))
    patch([unknown], "reconstruct_context", "quantizer.reconstruct_context",
          on_return=keep("xhat", lambda a, r: r[0]))
    patch([unknown], "encode_unknown", "codec.encode",
          on_return=keep("bits", lambda a, r: len(r)))
    patch([known], "encode_known", "codec.encode",
          on_return=keep("bits", lambda a, r: len(r)))
    patch_method(codec.BitBuffer, "to_bytes", "codec.frame")
    codec.BitBuffer.from_bytes = classmethod(
        tracer.wrap("codec.frame", codec.BitBuffer.from_bytes.__func__))
    patch([unknown], "decode_unknown", "codec.decode",
          on_return=keep("magnitudes", lambda a, r: r.context.magnitudes))
    patch([known], "decode_known", "codec.decode")
    patch([unknown], "apply_update", "unknown.apply_update")
    patch([harness], "build_known_action_map", "known.build_action_map")
    patch([known, unknown], "greedy_action", "known.greedy_action",
          absorbed_under=("known.build_action_map",))
    patch_method(known.LinUcb, "select", "known.linucb_select")
    patch_method(known.LinUcb, "update", "known.linucb_update")
    patch([harness], "run_known", "harness.sim")
    patch([harness], "run_unknown", "harness.sim")
    patch_method(env.RegretTrace, "write_csv", "harness.write_csv")
    patch([harness], "summarize", "harness.summarize")


def decoded_figures(observed, d):
    """Rounds whose decoded context leaves the lattice or strays over one grid step.

    The lattice is {v : ||v||_1 <= 2d}; the grid step is 1/ceil(sqrt(d)).
    """
    import numpy as np

    played = np.array(observed["played"], dtype=float).reshape(-1, d)
    xhat = np.array(observed["xhat"], dtype=float).reshape(-1, d)
    mags = np.array(observed["magnitudes"], dtype=np.int64).reshape(-1, d)
    if not len(played) == len(xhat) == len(mags):
        raise RuntimeError("traced quantize/decode/reconstruct calls do not pair up")
    step = 1.0 / math.ceil(math.sqrt(d))
    return {"rounds": len(played),
            "l1_violations": int(np.sum(mags.sum(axis=1) > 2 * d)),
            "step_violations": int(np.sum(np.any(np.abs(xhat - played) > step + 1e-12,
                                                 axis=1)))}


def main(argv):
    config_path, base_dir, mode, out_path = argv
    if mode not in ("plain", "trace"):
        raise SystemExit(f"mode must be plain or trace, got {mode!r}")
    t_import0 = time.monotonic()
    from bitbandit import harness
    t_import = time.monotonic()
    cfg = harness.load_config(config_path)
    t_loaded = time.monotonic()

    out = {"t_import0": t_import0, "t_import": t_import, "t_loaded": t_loaded,
           "build_s": 0.0}
    build = harness.build_known_action_map

    @functools.wraps(build)
    def timed_build(c):
        start = time.monotonic()
        amap = build(c)
        out["build_s"] = time.monotonic() - start
        out["thetas"], out["table"] = amap.thetas.tolist(), amap.table.tolist()
        return amap

    harness.build_known_action_map = timed_build
    observed = defaultdict(list)
    tracer = Tracer()
    if mode == "trace":
        install_tracer(tracer, observed)

    harness.run_experiment(cfg, base_dir=base_dir)
    out["t_end"] = time.monotonic()
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if mode == "trace":
        out["layers"] = tracer.report()
        out["messages"] = len(observed["bits"])
        out["message_bits"] = sum(observed["bits"])
        out["decoded"] = decoded_figures(observed, cfg.spec.d)
    with open(out_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
