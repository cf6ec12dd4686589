"""The benchmark's workloads: which input each one reads and which CLI
command it runs. Standard library only, so the driver can import it without
importing trilink."""

from __future__ import annotations

from dataclasses import dataclass

PAIRWISE_METHODS = ("pairseed", "ss", "max", "mul", "trpr", "trprw", "js", "aa", "pa",
                    "js-max", "js-mul", "aa-max", "aa-mul")
LINKPRED_METHODS = ("single", "sum", "max", "star", "trpr")
K_VALUES = (5, 25)
ALPHA = 0.85
ITERATIONS = 10


@dataclass(frozen=True)
class InputSpec:
    """A synthetic edge list. kind "gpa": generate_gpa(p_edge=p, steps=size,
    rng_seed); kind "gnp": G(size, p) drawn as in test_triangle_linear_scaling."""

    name: str
    kind: str
    size: int
    p: float
    rng_seed: int


GPA20K = InputSpec("gpa20k", "gpa", 20000, 0.5, 1)
GPA5K = InputSpec("gpa5k", "gpa", 5000, 0.5, 1)
GNP1500 = InputSpec("gnp1500", "gnp", 1500, 0.08, 41)


@dataclass(frozen=True)
class Workload:
    """kind is one of holdout, loeto, linkpred, diagnose; count is the trial
    count (pairwise), the cohort size (linkpred) or --max-iters (diagnose)."""

    name: str
    kind: str
    input: InputSpec
    count: int

    def argv(self, input_path: str, out_dir: str, seed: int) -> list[str]:
        common = ["--input", input_path, "--out-dir", out_dir, "--seed", str(seed),
                  "--threads", "1", "--alpha", str(ALPHA), "--iterations", str(ITERATIONS)]
        if self.kind in ("holdout", "loeto"):
            return ["pairwise", "--protocol", self.kind, "--trials", str(self.count),
                    "--methods", ",".join(PAIRWISE_METHODS),
                    "--k", ",".join(map(str, K_VALUES)), *common]
        if self.kind == "linkpred":
            return ["linkpred", "--num-nodes", str(self.count),
                    "--methods", ",".join(LINKPRED_METHODS), *common]
        if self.kind == "diagnose":
            return ["diagnose", "--max-iters", str(self.count), *common]
        raise ValueError(f"unknown workload kind {self.kind!r}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("holdout-gpa20k", "holdout", GPA20K, 100),
        Workload("loeto-gpa20k", "loeto", GPA20K, 20),
        Workload("linkpred-gpa5k", "linkpred", GPA5K, 100),
        Workload("diagnose-gnp1500", "diagnose", GNP1500, 200),
    )
}
