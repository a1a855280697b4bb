"""freqbooth benchmark: four closed-loop workloads, end-to-end and per-layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload is a closed loop: one caller in one process starts the next
operation only after the previous one returns.  The program receives only
inputs generated from ``--seed``.  Each op's output is checked outside the
timed region; a failed check or a raised exception counts as a failed op
and never stops the run.

``--trace 0`` times ops for ``--seconds`` seconds and reports the
end-to-end metrics.  ``--trace 1`` runs a fixed number of ops instead, so
that call counts repeat exactly at a given seed.  Every second op runs
under the span tracer; the others run untraced, which gives the tracing
overhead.  That run reports the per-layer metrics and writes its spans to
``.bench_out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads: with the default two threads
# on a two-core box the stage-1 step time spread up to 20% run to run.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
# FREQBOOTH_OUT would override every --out-dir the walkthrough passes.
os.environ.pop("FREQBOOTH_OUT", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import HOOK_SPAN, ROOT_SPAN, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("tensor_core", "codes", "config", "dct_freq", "attention",
           "reference_encoder", "diffusion", "training", "netpbm", "cli")

SETUP_REPEATS = 9        # set-ups per run; setup_s is their median
# Model weights and the prerequisite stages draw from a fixed seed, so the
# workload seed varies the inputs only.  With weights drawn from the
# workload seed, op cost moved by up to 5% from seed to seed (the speed of
# exp and tanh depends on their arguments), more than a run averages out.
MODEL_SEED = 0
PREREQ_STEPS = 40        # steps of each prerequisite stage run in set-up
CHUNK_STEPS = 25         # optimizer steps per train() op
BATCH = 4
SWEEP_LAMBDAS = (0.0, 0.4, 1.0)
SWEEP_TRIALS = 16        # seed list length; ops cycle over trials x lambdas
SAMPLE_STEPS = 20
GUIDANCE = 3.0
# ops of a traced run: an even count of whole latency samples, so traced and
# plain ops see every kind of op equally often
TRACED_OPS = {"train-identity": 16, "train-control": 16,
              "sample-sweep": 48, "cli-walkthrough": 36}

# Spans of the traced run, as <module>.<function>.
SPANS = (
    "tensor_core.softmax_rows", "tensor_core.RngState.normal",
    "tensor_core.RngState.uniform", "codes.time_features",
    "dct_freq.make_control_signal",
    "attention.attention_forward", "attention.attention_backward",
    "reference_encoder.encode_latent", "reference_encoder.decode_latent",
    "reference_encoder.reference_forward",
    "reference_encoder.reference_forward_train",
    "reference_encoder.reference_backward",
    "diffusion.denoiser_forward", "diffusion.denoiser_backward",
    "diffusion.predict_eps", "diffusion.ddim_step", "diffusion.sample",
    "training.train", "training.batch_loss", "training.adam_step",
    "training.identity_metric_flagged", "training.generate_dataset",
    "training.dataset_checksum", "training.save_checkpoint",
    "training.load_checkpoint",
    "netpbm.read_ppm", "netpbm.write_ppm",
    "cli.save_dataset", "cli.load_dataset",
    "cli.cmd_gen_data", "cli.cmd_train", "cli.cmd_sample", "cli.cmd_filter",
    "cli.cmd_sweep_lambda", "cli.cmd_ablate_masks",
)
# Spans whose first argument is a file path; the traced run reports the
# mean file size per call.
FILE_SPANS = ("training.save_checkpoint", "training.load_checkpoint",
              "netpbm.read_ppm", "netpbm.write_ppm")


def load_program() -> dict:
    """Import freqbooth's modules from the checkout's src/, by name."""
    if not (SRC / "freqbooth" / "__init__.py").is_file():
        raise FileNotFoundError(f"no freqbooth sources under {SRC}")
    sys.path.insert(0, str(SRC))
    return {name: importlib.import_module(f"freqbooth.{name}") for name in MODULES}


# Run by a fresh interpreter: prints how long importing numpy and the
# program's modules takes there.
IMPORT_PROBE = """
import importlib, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy
for name in sys.argv[2:]:
    importlib.import_module("freqbooth." + name)
print(time.perf_counter() - start)
"""


def import_seconds() -> float:
    """Import time of a fresh interpreter.  Timed anew for every set-up:
    the benchmark process's own imports happen once, so they would put a
    single reading into every set-up's median."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), *MODULES],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def machine_record(seed: int) -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in BLAS_THREAD_VARS)
    return (f"machine: python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas_text} nproc={os.cpu_count()} {threads} seed={seed}")


def quantize(img):
    import numpy as np
    return np.round(np.clip(img, 0.0, 1.0) * 255.0) / 255.0


# ---------------------------------------------------------------------------
# workloads
#
# A workload has setup(lap) (run SETUP_REPEATS times; it calls lap() after
# each piece of program work and lap(counted=False) after bookkeeping, see
# SetupClock), before(i) returning a context (untimed), op(i, ctx) (timed,
# one program operation) and check(i, ctx, out) returning a list of
# problems (untimed).


def no_lap(counted: bool = True) -> None:
    """The lap callback of a set-up nobody times."""


def train_config(m, stage: int, steps: int, seed: int, mask=None):
    """Stage config at batch BATCH and lambda 1.0; `mask` applies to stage 2."""
    return m["training"].TrainConfig(stage=stage, steps=steps, batch_size=BATCH, seed=seed,
                                     identity_scale=1.0,
                                     mask_kind=mask if stage == 2 else None)


def prepare(m, seed: int, stages, lap):
    """Set-up shared by the train and sample workloads: the dataset from
    `seed`; encoders, schedule and weights from MODEL_SEED; then each stage
    of `stages` trained for PREREQ_STEPS steps.
    Returns (dataset, encoders, schedule, weights)."""
    t = m["training"]
    dataset = t.generate_dataset(t.ToyDatasetSpec(), seed)
    lap()
    cfg = m["config"].toy_config()
    enc = m["reference_encoder"].build_encoders(cfg)
    schedule = m["diffusion"].linear_schedule(cfg.timesteps)
    weights = m["diffusion"].init_weights(cfg, MODEL_SEED)
    for stage in stages:
        lap()
        t.train(train_config(m, stage, PREREQ_STEPS, MODEL_SEED), dataset, weights,
                schedule, enc)
    lap()
    return dataset, enc, schedule, weights


class TrainChunks:
    """One op is one train() call of CHUNK_STEPS steps of `stage`, on weights
    whose earlier stages ran in set-up."""

    group, units = 1, CHUNK_STEPS   # ops per latency sample, steps in it
    sample_unit = f"chunk of {CHUNK_STEPS} steps"
    latency_unit = "optimizer step"

    def __init__(self, m, seed: int, stage: int, mask):
        self.m, self.seed, self.stage, self.mask = m, seed, stage, mask
        self.description = (f"one train() call of {CHUNK_STEPS} stage-{stage} steps, "
                            f"batch {BATCH}, "
                            + (f"mask {mask}" if mask else "lambda 1.0"))

    def setup(self, lap=no_lap) -> None:
        self.dataset, self.enc, self.schedule, self.weights = prepare(
            self.m, self.seed, range(self.stage), lap)
        self.op(-1, None)  # warm-up
        lap()

    def before(self, i: int):
        return {s: self.weights.checksum(s) for s in self.m["diffusion"].PARAM_SETS}

    def op(self, i: int, ctx):
        # a distinct train seed per op draws fresh batches
        config = train_config(self.m, self.stage, CHUNK_STEPS,
                              self.seed * 1_000_003 + i + 1, self.mask)
        return self.m["training"].train(config, self.dataset, self.weights,
                                        self.schedule, self.enc)

    def check(self, i: int, before, report) -> list[str]:
        import numpy as np
        problems = []
        if len(report.losses) != CHUNK_STEPS or not np.all(np.isfinite(report.losses)):
            problems.append("non-finite or missing losses")
        after = self.before(i)
        for s, digest in before.items():
            if s == report.trainable_set and after[s] == digest:
                problems.append(f"active set {s} did not change")
            elif s != report.trainable_set and after[s] != digest:
                problems.append(f"inactive set {s} changed")
        return problems


class SampleSweep:
    """One op is one 20-step CFG sample() call plus its identity metric, as
    in sweep-lambda: lambda cycles over SWEEP_LAMBDAS with seeds paired
    across lambda, references cycle over the test references."""

    # A latency sample is the mean of one sweep point, one call per lambda:
    # calls cost about 11 ms at lambda 0 and 13 ms above, and a median
    # taken across that split jumps between the two.
    group = units = len(SWEEP_LAMBDAS)
    sample_unit = f"sweep point of {len(SWEEP_LAMBDAS)} calls"
    latency_unit = "sample() call"

    def __init__(self, m, seed: int):
        self.m, self.seed = m, seed
        self.description = (f"one sample() call: {SAMPLE_STEPS} DDIM steps, CFG w={GUIDANCE}, "
                            f"text 0, lambda cycling {SWEEP_LAMBDAS}, "
                            f"{SWEEP_TRIALS} paired seeds")
        self.digests: dict[int, str] = {}
        self.seen: dict[int, int] = {}

    def setup(self, lap=no_lap) -> None:
        self.dataset, self.enc, self.schedule, self.weights = prepare(
            self.m, self.seed, (0, 1), lap)
        for i in range(len(SWEEP_LAMBDAS)):  # warm-up
            self.op(i, None)
            lap()

    def before(self, i: int):
        return None

    def _case(self, i: int):
        slot = i % (SWEEP_TRIALS * len(SWEEP_LAMBDAS))
        return slot, SWEEP_LAMBDAS[slot % len(SWEEP_LAMBDAS)], slot // len(SWEEP_LAMBDAS)

    def op(self, i: int, ctx):
        m = self.m
        _, lam, trial = self._case(i)
        rng = m["tensor_core"].RngState(self.seed).derive(("sweep", trial))
        ref = self.dataset.test_refs[trial % self.dataset.spec.n_identities]
        img, _ = m["diffusion"].sample(self.weights, self.enc, self.schedule, rng,
                                       ref_img=ref, text_id=0, mask_kind=None,
                                       steps=SAMPLE_STEPS, guidance=GUIDANCE,
                                       identity_scale=lam)
        quant = quantize(img)
        metric, _ = m["training"].identity_metric_flagged(quant, ref)
        return img, quant, metric

    def check(self, i: int, before, out) -> list[str]:
        import numpy as np
        img, quant, metric = out
        problems = []
        size = self.dataset.spec.image_size
        if img.shape != (3, size, size):
            problems.append(f"image shape {img.shape}")
        if not np.all(np.isfinite(img)) or not math.isfinite(metric):
            problems.append("non-finite image or metric")
        slot, _, _ = self._case(i)
        digest = hashlib.sha256(quant.tobytes()).hexdigest()
        self.seen[slot] = self.seen.get(slot, 0) + 1
        if self.digests.setdefault(slot, digest) != digest:
            problems.append(f"seed slot {slot} did not reproduce byte for byte")
        return problems

    def unrepeated(self) -> list[int]:
        """Seed slots sampled only once so far; each needs a second pass."""
        return sorted(slot for slot, n in self.seen.items() if n == 1)


class CliWalkthrough:
    """One op is one in-process cli.main command; nine consecutive ops make
    one pass over the README sequence into a fresh directory, with step
    counts cut so training is under half the wall time.  Timing commands
    one by one lets the host gauge read between them."""

    sample_unit = latency_unit = "pass"

    def __init__(self, m, seed: int):
        self.m, self.seed = m, seed
        self.description = ("one cli.main command; a pass is gen-data; train 0/1/2; sample "
                            "plain and --mask low; filter; sweep-lambda; ablate-masks")
        self.reference_digest = None
        self.tmp = None
        self.group, self.units = len(self.commands(Path("."))), 1

    def commands(self, d: Path) -> list[list[str]]:
        ref = str(d / "dataset" / "ref_test_00.ppm")
        seq = [
            ["gen-data"],
            ["train", "--stage", "0", "--steps", "20"],
            ["train", "--stage", "1", "--steps", "40"],
            ["train", "--stage", "2", "--mask", "low", "--steps", "20"],
            ["sample", "--ref", ref, "--lambda", "0.4", "--n", "4"],
            ["sample", "--mask", "low", "--ref", ref, "--n", "4"],
            ["filter", "--input", str(d / "dataset" / "test_0000.ppm"), "--mask", "high"],
            ["sweep-lambda", "--values", "0,0.4,1.0", "--trials", "4"],
            ["ablate-masks", "--train-steps", "10", "--eval-size", "8",
             "--eval-samples", "1"],
        ]
        # train initialises the model from --seed, so it gets MODEL_SEED
        return [argv + ["--out-dir", str(d), "--seed",
                        str(MODEL_SEED if argv[0] == "train" else self.seed)]
                for argv in seq]

    def setup(self, lap=no_lap) -> None:
        if self.tmp is None:
            self.tmp = Path(tempfile.mkdtemp(prefix="walk-", dir=OUT))
        # warm-up pass; the first tree digest is what every later pass must
        # match.  Only the commands count as set-up time.
        problems = []
        for i in range(-self.group, 0):
            d = self.before(i)
            lap(counted=False)
            code = self.op(i, d)
            lap()
            problems += self.check(i, d, code)
            lap(counted=False)
        if problems:
            raise RuntimeError(f"warm-up pass failed: {problems}")

    def before(self, i: int) -> Path:
        d = self.tmp / f"pass-{i // self.group + 1}"
        if i % self.group == 0:
            # Flush the last pass's writes first, so the writes gen-data
            # times land in the page cache, not behind a busy disk: with
            # the flush left to the kernel its time moved by 70% between runs.
            os.sync()
            d.mkdir()
        return d

    def op(self, i: int, d: Path) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.m["cli"].main(self.commands(d)[i % self.group])

    def check(self, i: int, d: Path, code: int) -> list[str]:
        argv = self.commands(d)[i % self.group]
        problems = [] if code == 0 else [f"{argv[0]} exited {code}"]
        if i % self.group == self.group - 1:
            problems += self.check_pass(d)
        return problems

    def check_pass(self, d: Path) -> list[str]:
        problems = []
        for report in sorted(d.glob("train_report_*.json")):
            if report.name.endswith(".timing.json"):
                continue
            data = json.loads(report.read_text())
            if data["frozen_before"] != data["frozen_after"]:
                problems.append(f"{report.name}: frozen sets changed")
        digest = tree_digest(d)
        if self.reference_digest is None:
            self.reference_digest = digest
        elif digest != self.reference_digest:
            problems.append("artifact tree differs from the first pass")
        shutil.rmtree(d)
        return problems


def tree_digest(d: Path) -> str:
    """SHA-256 over relative paths and bytes of every file except *.timing.json."""
    h = hashlib.sha256()
    for path in sorted(p for p in d.rglob("*") if p.is_file()):
        if path.name.endswith(".timing.json"):
            continue
        h.update(str(path.relative_to(d)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


WORKLOADS = {
    "train-identity": lambda m, seed: TrainChunks(m, seed, 1, None),
    "train-control": lambda m, seed: TrainChunks(m, seed, 2, "low"),
    "sample-sweep": SampleSweep,
    "cli-walkthrough": CliWalkthrough,
}
# Latency each workload reports: (name, unit, scale from seconds, whether a
# run has samples enough for a p90)
LATENCY = {"train-identity": ("step_ms", "ms", 1e3, True),
           "train-control": ("step_ms", "ms", 1e3, True),
           "sample-sweep": ("sample_ms", "ms", 1e3, True),
           "cli-walkthrough": ("walkthrough_s", "s", 1.0, False)}


# ---------------------------------------------------------------------------
# measurement


class HostGauge:
    """Fixed work timed between ops, to read how fast the host runs right now.

    On the shared two-core host the benchmark was built on, one core's speed
    moved by up to 45% between phases lasting seconds to minutes, so raw
    medians of 20-second runs spread 15-35% run to run.  The gauge is
    benchmark code, not program code, so no change to freqbooth moves it.
    Scaling each op's time by REFERENCE_S over the mean of the readings just
    before and after the op gives its time at a fixed host speed.  The work
    is one attention block forward and backward on 64 x 32 float64 tokens,
    the shape of the program's hot path; of the gauges tried it tracked the
    ops most closely (a pure-Python gauge did worst).
    """

    REFERENCE_S = 0.0025  # between its fast (2.3 ms) and slow (3.3 ms) phases there

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((64, 32))
        self.w1 = rng.standard_normal((32, 32))
        self.w2 = rng.standard_normal((32, 32))
        self.read()  # the process's first numpy/BLAS calls run cold; discarded
        self.readings: list[float] = [self.read()]

    def read(self) -> float:
        np, x, w1, w2 = self.np, self.x, self.w1, self.w2
        start = time.perf_counter()
        for _ in range(25):
            q, k, v = x @ w1, x @ w2, x @ w1.T
            s = q @ k.T * 0.17
            e = np.exp(s - s.max(axis=-1, keepdims=True))
            a = e / e.sum(axis=-1, keepdims=True)
            h = np.tanh((x + a @ v) @ w2) @ w1
            da = h @ v.T
            ds = a * (da - (da * a).sum(axis=1, keepdims=True))
            x.T @ (ds @ k)
        return time.perf_counter() - start

    def factor(self) -> float:
        """Reference-speed factor for the op that just ended."""
        self.readings.append(self.read())
        return self.REFERENCE_S / ((self.readings[-2] + self.readings[-1]) / 2)


class SetupClock:
    """Times one set-up lap by lap.  Each lap is scaled by the gauge readings
    just before and after it, as an op is, so a host-speed change during a
    long set-up is followed; a single factor over the whole set-up let
    setup_s spread 13-18% run to run."""

    def __init__(self, gauge: HostGauge):
        self.gauge = gauge
        self.raw = self.scaled = 0.0
        self.start = time.perf_counter()

    def lap(self, counted: bool = True) -> None:
        """End the current lap; an uncounted one (benchmark bookkeeping) is
        left out of both totals."""
        elapsed = time.perf_counter() - self.start
        factor = self.gauge.factor()
        if counted:
            self.raw += elapsed
            self.scaled += elapsed * factor
        self.start = time.perf_counter()


class Loop:
    """Runs ops one after another, timing each and counting failures."""

    def __init__(self, workload, gauge: HostGauge | None = None):
        self.w = workload
        self.gauge = gauge
        self.times: list = []     # seconds per op by index, None where it failed
        self.scaled: list = []    # the same at the gauge's reference speed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def step(self, i: int, call=None) -> float:
        """One op; `call(fn)` runs the op's thunk (default: `fn()`).
        Returns the op's wall time, 0.0 when it raised."""
        w = self.w
        self.attempted += 1
        elapsed = 0.0
        try:
            ctx = w.before(i)
            thunk = lambda: w.op(i, ctx)  # noqa: E731
            start = time.perf_counter()
            out = call(thunk) if call else thunk()
            elapsed = time.perf_counter() - start
            problems = w.check(i, ctx, out)
        except Exception as exc:  # counted as a failed op, never raised
            problems = [f"{type(exc).__name__}: {exc}"]
        factor = self.gauge.factor() if self.gauge else 1.0
        if problems:
            self.failed += 1
            self.problems.append(f"op {i}: {'; '.join(problems)}")
        self.times.append(None if problems else elapsed)
        self.scaled.append(None if problems else elapsed * factor)
        return elapsed

    def samples(self, times) -> list[float]:
        """Latency samples in seconds per unit: each group of ops that all
        succeeded, divided by the units it holds."""
        g, units = self.w.group, self.w.units
        groups = (times[k:k + g] for k in range(0, len(times) - g + 1, g))
        return [sum(chunk) / units for chunk in groups if None not in chunk] or [0.0]

    def second_passes(self) -> None:
        """Checked repeats, after the timed ops, of the seed slots that ran
        only once, so every sample-sweep image is reproduced at least once."""
        for slot in getattr(self.w, "unrepeated", list)():
            self.step(slot)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_timed(name, workload, seconds: float) -> tuple[dict, Loop]:
    gauge = HostGauge()
    imports, raw, scaled = [], [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        import_scaled = imports[-1] * gauge.factor()
        clock = SetupClock(gauge)
        workload.setup(clock.lap)
        raw.append(imports[-1] + clock.raw)
        scaled.append(import_scaled + clock.scaled)
    setup_raw = statistics.median(raw)
    setup_s = statistics.median(scaled)

    loop = Loop(workload, gauge)
    deadline = time.perf_counter() + seconds
    i = 0
    while i % workload.group or i == 0 or time.perf_counter() < deadline:
        loop.step(i)
        i += 1
    per = loop.samples(loop.times)
    scaled = loop.samples(loop.scaled)
    loop.second_passes()

    label, unit, scale, tail = LATENCY[name]
    per = [t * scale for t in per]
    norm_ms = statistics.median(scaled) * 1e3
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = f"n={len(per)}, one per {workload.sample_unit}"
    print(f"{'setup_s':<20} = {setup_s:.4f} s (median of {SETUP_REPEATS} set-ups with imports, "
          f"at the reference host speed; {setup_raw:.4f} s wall, imports "
          f"{statistics.median(imports):.4f} s)")
    if tail:
        print(f"{label + '.p50':<20} = {statistics.median(per):.4f} {unit} ({n})")
        print(f"{label + '.p90':<20} = {percentile(per, 0.9):.4f} {unit} ({n}; nearest rank)")
    else:
        print(f"{label:<20} = {statistics.median(per):.4f} {unit} (median, {n}; too few "
              f"for a tail percentile, so only the median is supported)")
    print(f"{'peak_rss_mb':<20} = {rss_mb:.3f} MB (ru_maxrss)")
    print(f"{'ops_failed_ratio':<20} = {loop.failed / loop.attempted:g} "
          f"({loop.failed} failed / {loop.attempted} attempted)")
    print(f"{'latency_norm_ms.p50':<20} = {norm_ms:.4f} ms (median {label} in ms at the reference "
          f"host speed, {n})")
    print(f"{'host gauge':<20} = {statistics.median(gauge.readings) * 1e3:.4f} ms (median of "
          f"{len(gauge.readings)} readings; reference {HostGauge.REFERENCE_S * 1e3:g} ms)")
    metrics = {"setup_s": metric(setup_s, "s"), "latency_norm_ms.p50": metric(norm_ms, "ms"),
               "peak_rss_mb": metric(rss_mb, "MB")}
    return metrics, loop


def grad_hooks(counters):
    """Hooks that count gradient elements: all returned by the two backward
    passes, and those of the set the running stage trains."""
    state = {"trained": None, "calls": []}

    def train_before(args, kwargs):
        state["calls"] = []

    def adam_after(args, kwargs, result):
        grads = args[1] if len(args) > 1 else kwargs["grads"]
        state["trained"] = set(grads)

    def denoiser_after(args, kwargs, result):
        grads, _ = result
        state["calls"].append(("denoiser", {k: g.size for k, g in grads.items()}))

    def reference_after(args, kwargs, result):
        size = sum(g.size for k, g in result.items() if k != "heads")
        size += sum(h.size for h in result["heads"])
        state["calls"].append(("reference", size))

    def train_after(args, kwargs, result):
        trained = state["trained"] or set()
        # reference_backward grads are the pooler and heads: useful iff the
        # stage trains the pooler
        trains_ref = any(name.startswith("proj.") for name in trained)
        for kind, sizes in state["calls"]:
            if kind == "denoiser":
                counters["grad_elems"] += sum(sizes.values())
                counters["useful_grad_elems"] += sum(v for k, v in sizes.items() if k in trained)
            else:
                counters["grad_elems"] += sizes
                counters["useful_grad_elems"] += sizes if trains_ref else 0
        state["calls"], state["trained"] = [], None

    return {"training.train": (train_before, train_after),
            "training.adam_step": (None, adam_after),
            "diffusion.denoiser_backward": (None, denoiser_after),
            "reference_encoder.reference_backward": (None, reference_after)}


def run_traced(name, workload) -> tuple[dict, Loop]:
    counters = {"grad_elems": 0, "useful_grad_elems": 0}
    files: dict[str, list[int]] = {s: [] for s in FILE_SPANS}

    def file_hook(span):
        def after(args, kwargs, result):
            files[span].append(os.path.getsize(args[0]))
        return (None, after)

    hooks = grad_hooks(counters)
    hooks.update({s: file_hook(s) for s in FILE_SPANS})
    tracer = Tracer("freqbooth", SPANS, hooks)
    loop = Loop(workload)
    traced, plain = [], []
    n_ops = TRACED_OPS[name]
    for i in range(n_ops):
        if i % 2:
            traced.append(loop.step(i, call=lambda fn, i=i: tracer.run(i, fn)))
        else:
            plain.append(loop.step(i))
    loop.second_passes()

    calls, self_s = tracer.summary()
    # self_ms is per unit of the workload's latency metric (an optimizer
    # step, a sample() call or a pass), so the spans' self_ms add up to it
    n_units = len(traced) / workload.group * workload.units
    overhead = (sum(traced) / sum(plain) - 1.0) * 100.0 if sum(plain) else 0.0
    ratio = (counters["useful_grad_elems"] / counters["grad_elems"]
             if counters["grad_elems"] else 0.0)
    print(f"traced ops: {len(traced)} of {n_ops} (every second op); "
          f"{tracer.binding_count()} bindings wrapped; self_ms is per "
          f"{workload.latency_unit}")
    metrics = {}
    for span in SPANS:
        self_ms = self_s.get(span, 0.0) / n_units * 1e3
        metrics[f"{span}.calls"] = metric(calls.get(span, 0), "count")
        metrics[f"{span}.self_ms"] = metric(self_ms, "ms")
        print(f"{span:<42} calls={calls.get(span, 0):<8} self_ms={self_ms:.4f}")
    for span in FILE_SPANS:
        sizes = files[span]
        mean = sum(sizes) / len(sizes) if sizes else 0.0
        metrics[f"{span}.bytes_per_call"] = metric(mean, "B")
        print(f"{span + '.bytes_per_call':<42} = {mean:.1f} B ({len(sizes)} calls)")
    metrics["training.useful_grad_ratio"] = metric(ratio, "ratio")
    print(f"{'training.useful_grad_ratio':<42} = {ratio:.4f} "
          f"({counters['useful_grad_elems']} / {counters['grad_elems']} gradient elements"
          + ("; no backward ran" if not counters["grad_elems"] else "") + ")")
    metrics["trace.overhead_pct"] = metric(overhead, "%")
    print(f"{'trace.overhead_pct':<42} = {overhead:.2f} % (traced ops took "
          f"{sum(traced):.3f} s, as many plain ops {sum(plain):.3f} s; {ROOT_SPAN} self_ms="
          f"{self_s.get(ROOT_SPAN, 0.0) / n_units * 1e3:.4f}, {HOOK_SPAN} self_ms="
          f"{self_s.get(HOOK_SPAN, 0.0) / n_units * 1e3:.4f})")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{workload.seed}.jsonl"
    tracer.write(spans_path)
    print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    return metrics, loop


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        m = load_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](m, args.seed)
    print(machine_record(args.seed))
    print(f"workload: {args.workload} (closed loop, 1 caller, 1 process); "
          f"op = {workload.description}")
    try:
        if args.trace:
            workload.setup()
            metrics, loop = run_traced(args.workload, workload)
        else:
            metrics, loop = run_timed(args.workload, workload, args.seconds)
    finally:
        tmp = getattr(workload, "tmp", None)
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
    for problem in loop.problems[:20]:
        print(f"FAILED {problem}")
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
