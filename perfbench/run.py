"""Benchmark the five specjoint commands on seeded synthetic inputs.

    python3 perfbench/run.py --workload short --seed 1 --seconds 24 --trace 0

Runs from the root of a checkout; builds nothing, imports ``src/specjoint``.
The commands prepare, train, enhance, evaluate and distortion-profile run
through ``specjoint.cli.main`` with ``--jobs 1``, and a closed-loop latency
test reads, enhances and writes one utterance at a time. A warm-up round runs
each step once, in pipeline order; the timed rounds then run the workload's
schedule on identical inputs, and each throughput is the command's median
pass. Every output is checked (see ``checks.py``), and every timed round must
reproduce the warm-up's files byte for byte.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics, with
``--trace 1`` the per-layer ones from ``tracer.py``. The full record (machine,
every pass time, problems) goes to ``perfbench/results/``. The exit code is
non-zero when a check fails.
"""

import os
import sys
import time

START = time.perf_counter()
# One BLAS/OpenMP thread, set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ["SPECJOINT_LOG"] = "quiet"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from specjoint import cli, enhance, wavio  # noqa: E402
from specjoint.config import RunConfig  # noqa: E402
from specjoint.corpus import Variant, load_training_data, read_corpus_stats, read_manifest  # noqa: E402
from specjoint.network import init_model, load_model  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

IMPORTED = time.perf_counter()

END_TO_END = (
    ("setup_s", "s"),
    ("prepare.speed_xrt", "audio_s/s"),
    ("train.frames_per_s", "frames/s"),
    ("train.peak_rss_mb", "MB"),
    ("enhance.speed_xrt", "audio_s/s"),
    ("enhance.latency_p50_ms", "ms"),
    ("enhance.latency_p90_ms", "ms"),
    ("enhance.peak_rss_mb", "MB"),
    ("evaluate.speed_xrt", "audio_s/s"),
    ("profile.speed_xrt", "audio_s/s"),
)

COMMANDS = ("prepare", "train", "enhance", "evaluate", "profile")  # "profile" is distortion-profile

# Runs one command in a child process and prints the child's peak RSS (VmHWM)
# after its imports and at its end. The peak has to come from the child's own
# mm: rusage of a child forked from this process would start at this process's
# RSS.
_RSS_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from specjoint import cli

def peak_kb():
    with open("/proc/self/status", encoding="ascii") as handle:
        return int(next(line for line in handle if line.startswith("VmHWM:")).split()[1])

before = peak_kb()
code = cli.main(sys.argv[2:])
print(before, peak_kb(), flush=True)
sys.exit(code)
"""


class BenchError(RuntimeError):
    """A command failed, so the round cannot go on."""


def run_command(argv: list[str]) -> float:
    """Wall time of one cli.main call."""
    gc.collect()
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise BenchError(f"specjoint {' '.join(argv)} exited {code}")
    return elapsed


def peak_rss_mb(argv: list[str]) -> float:
    """Peak RSS of one command in a child process, less the child's imports."""
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, str(ROOT / "src"), *argv],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"child specjoint {' '.join(argv)} exited {proc.returncode}")
    before_kb, peak_kb = (int(x) for x in proc.stdout.split())
    return (peak_kb - before_kb) / 1024.0


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})".strip(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of the checkout's repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Bench:
    def __init__(self, workload: workloads.Workload, seed: int, seconds: int, trace: bool, work: Path):
        self.workload = workload
        self.config = RunConfig.from_file(workload.config_path)
        self.cfg = str(workload.config_path)
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.problems: list[str] = []
        self.attempted = 0
        self.tracer = None
        self.peak_rss: dict[str, float] = {}

    # --- one round --------------------------------------------------------

    def round(self, index: int) -> tuple[dict, dict]:
        """One timed round, or the warm-up round when index is 0.

        Every round writes to the same paths. The warm-up creates the files
        and the timed rounds write over them: creating thousands of new files
        costs kernel time on a shared disk that changes many times over from
        one minute to the next, and would drown what the commands themselves
        take.
        """
        out = self.out
        corpus, model, enh_in, enh = out / "corpus", out / "model.sjnn", out / "enh_in", out / "enh"
        cfg, jobs = ["--config", self.cfg], ["--jobs", "1"]
        split = ["--split", "test", str(corpus), str(enh)]
        argv = {
            "prepare": ["prepare", *cfg, *jobs, str(self.inputs["clean"]), str(self.inputs["noise"]), str(corpus)],
            "train": ["train", *cfg, *jobs, str(corpus), str(model)],
            "enhance": ["enhance", *cfg, *jobs, str(model), str(enh_in), str(enh)],
            "evaluate": ["evaluate", *jobs, *split, str(out / "report.csv")],
            "profile": ["distortion-profile", *cfg, *jobs, *split, str(out / "profile.csv")],
        }
        schedule = workloads.PIPELINE if index == 0 else self.workload.schedule
        times: dict[str, list[float]] = {c: [] for c in COMMANDS}
        latency: dict[str, list[float]] = {}
        for step in schedule:
            if step == "latency":
                for name, seconds in self.latency_loop(model, out / "latency_out").items():
                    latency.setdefault(name, []).append(seconds)
                continue
            if index == 0 and step in ("train", "enhance"):
                # Alone in a child process, whose peak RSS is the memory metric.
                self.peak_rss[step] = peak_rss_mb(argv[step])
            else:
                times[step].append(run_command(argv[step]))
            if index == 0 and step == "prepare":
                self.rows = checks.read_manifest(corpus / "manifest.tsv")
                self.test_rows = [r for r in self.rows if r["split"] == "test"]
                enh_in.mkdir()
                for row in self.test_rows:
                    shutil.copyfile(corpus / "noisy" / f"{row['id']}.wav", enh_in / f"{row['id']}.wav")
        operations = {"prepare": len(self.rows), "train": self.config.epochs, "latency": len(self.latency_inputs)}
        self.attempted += sum(operations.get(step, len(self.test_rows)) for step in schedule)
        return times, latency

    def latency_loop(self, model_path: Path, out_dir: Path) -> dict[str, float]:
        """Closed loop, one caller: read, enhance and write one utterance at a time.

        The steps are the ones ``specjoint enhance`` takes per file, with the
        model loaded once beforehand, as a resident service would hold it.
        """
        model = load_model(model_path)
        stft_config, bank, post = self.config.stft_config(), self.config.bank(), self.config.post_config()
        out_dir.mkdir(parents=True, exist_ok=True)
        times = {}
        gc.collect()
        with self.tracer.span("bench.latency") if self.tracer else contextlib.nullcontext():
            for path in self.latency_inputs:
                start = time.perf_counter()
                noisy = wavio.read_wav(path, expected_rate=self.config.sample_rate)
                result = enhance.enhance_waveform(model, noisy, stft_config, bank, post)
                wavio.write_wav(out_dir / path.name, result.enhanced)
                enhance.write_diagnostics(out_dir / f"{path.stem}.diag.txt", result)
                times[path.name] = time.perf_counter() - start
        return times

    # --- the whole run ----------------------------------------------------

    def run(self) -> dict:
        synth_start = time.perf_counter()
        self.inputs = workloads.write_inputs(self.workload, self.seed, self.work / "inputs")
        synth_s = time.perf_counter() - synth_start
        self.clean_names = sorted(p.name for p in self.inputs["clean"].glob("*.wav"))
        self.latency_inputs = sorted(self.inputs["latency_in"].glob("*.wav"))
        lengths = {p.name: checks.wav_length(p) for p in self.inputs["clean"].glob("*.wav")}

        self.out = self.work / "out"
        warm_start = time.perf_counter()
        self.round(0)
        warm_s = time.perf_counter() - warm_start
        setup_s = (IMPORTED - START) + synth_s + warm_s
        reference = checks.digest_tree(self.out)

        if self.trace:
            self.tracer = tracing.Tracer(ignore_dirs=(self.inputs["clean"], self.inputs["noise"]))
            self.tracer.install()
        passes = {c: [] for c in COMMANDS}
        latency_passes: dict[str, list[float]] = {}
        try:
            for index in range(1, self.workload.timed_rounds(self.seconds) + 1):
                if self.tracer:
                    self.tracer.round = index
                started = time.time_ns()
                times, latency = self.round(index)
                for command, seconds in times.items():
                    passes[command].extend(seconds)
                for name, seconds in latency.items():
                    latency_passes.setdefault(name, []).extend(seconds)
                if checks.digest_tree(self.out) != reference:
                    self.problems.append(f"round {index} did not reproduce the warm-up's files")
                self.problems += checks.check_rewritten(self.out, started, keep={"enh_in"})
        finally:
            if self.tracer:
                self.tracer.uninstall()

        checks_start = time.perf_counter()
        self.check_outputs()
        checks_s = time.perf_counter() - checks_start
        train_frames = sum(checks.frame_count(lengths[r["clean"].name]) for r in self.rows if r["split"] == "train")
        mixture_audio = sum(lengths[r["clean"].name] for r in self.rows) / workloads.SAMPLE_RATE
        test_audio = sum(lengths[r["clean"].name] for r in self.test_rows) / workloads.SAMPLE_RATE
        # Medians, not the fastest pass: the fastest lands on whatever brief
        # fast stretch the machine had, and over ten runs it spread about
        # twice as far from run to run as the median pass did.
        typical = {c: statistics.median(passes[c]) for c in COMMANDS}
        latency_ms = 1000.0 * np.array(sorted(statistics.median(v) for v in latency_passes.values()))
        values = {
            "setup_s": setup_s,
            "prepare.speed_xrt": mixture_audio / typical["prepare"],
            "train.frames_per_s": train_frames * self.config.epochs / typical["train"],
            "train.peak_rss_mb": self.peak_rss["train"],
            "enhance.speed_xrt": test_audio / typical["enhance"],
            "enhance.latency_p50_ms": float(np.percentile(latency_ms, 50)),
            "enhance.latency_p90_ms": float(np.percentile(latency_ms, 90)),
            "enhance.peak_rss_mb": self.peak_rss["enhance"],
            "evaluate.speed_xrt": test_audio / typical["evaluate"],
            "profile.speed_xrt": test_audio / typical["profile"],
        }
        record = {
            "workload": self.workload.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "environment": environment(),
            "setup": {"import_s": IMPORTED - START, "synth_s": synth_s, "warmup_s": warm_s},
            "checks_s": checks_s,
            "passes_s": passes,
            "latency_ms": latency_ms.tolist(),
            "sizes": {
                "mixtures": len(self.rows),
                "mixture_audio_s": mixture_audio,
                "train_frames": train_frames,
                "test_utterances": len(self.test_rows),
                "test_audio_s": test_audio,
                "latency_utterances": len(self.latency_inputs),
            },
            "end_to_end": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
        }
        if self.trace:
            record["per_layer"], problems = self.tracer.summary()
            self.problems += problems
            record["per_layer_rounds"] = self.tracer.per_round()
        record["problems"] = self.problems
        return record

    def check_outputs(self) -> None:
        """Every correctness check on the rounds' outputs."""
        p, out, config = self.problems, self.out, self.config
        corpus = out / "corpus"
        noise_names = sorted(x.name for x in self.inputs["noise"].glob("*.wav"))
        p += checks.check_manifest(self.rows, self.clean_names, noise_names, config.snr_grid)
        p += checks.check_mixture_snr(self.rows, corpus / "noisy")
        p += checks.check_norm_stats(self.rows, corpus)

        trained = load_model(out / "model.sjnn")
        shape_problems = checks.check_layer_shapes(trained, config)
        p += shape_problems
        if not shape_problems:
            variant = Variant.parse(config.variant)
            stats = read_corpus_stats(corpus)
            train_entries = sorted(
                (e for e in read_manifest(corpus / "manifest.tsv") if e.split == "train"),
                key=lambda e: e.utterance_id,
            )
            sample = load_training_data(
                corpus, train_entries[:2], variant, stats, config.context_tau, config.noise_aware_frames
            )
            untrained = init_model(
                variant, trained.input_dim, stats, config.context_tau, config.noise_aware_frames,
                config.lps_dims, config.mfcc_dims, hidden_units=config.hidden_units,
                hidden_layers=config.hidden_layers, seed=config.seed,
            )
            p += checks.check_training_helped(trained, untrained, sample, config)

        p += checks.check_enhanced(out / "enh_in", out / "enh")
        p += checks.check_enhanced(self.inputs["latency_in"], out / "latency_out")
        p += checks.check_report(out / "report.csv", self.test_rows, out / "enh")
        p += checks.check_profile(out / "profile.csv", self.test_rows, out / "enh")

        # A seeded sample enhanced again with two workers, untimed.
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(len(self.test_rows), self.workload.jobs2_sample, replace=False)
        names = sorted(self.test_rows[i]["id"] for i in picks)
        sample_in, sample_out = self.work / "jobs2_in", self.work / "jobs2_out"
        sample_in.mkdir()
        for name in names:
            shutil.copyfile(out / "enh_in" / f"{name}.wav", sample_in / f"{name}.wav")
        run_command(["enhance", "--config", self.cfg, "--jobs", "2", str(out / "model.sjnn"), str(sample_in), str(sample_out)])
        self.attempted += len(names)
        p += checks.check_same_bytes(
            out / "enh", sample_out, [f"{n}.wav" for n in names] + [f"{n}.diag.txt" for n in names]
        )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    work = HERE / ".work" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        record = bench.run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = results / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        bench.tracer.write(stem.with_suffix(".spans.jsonl"))
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not record["problems"]
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": 0, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
