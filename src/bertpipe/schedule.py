"""Training-step planning: steps = floor(N_tok * E / (b * lambda)) per phase.

A partial final step is never executed, hence the floor. Arithmetic is
exact (fractions), so reported counts are independent of float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class PhaseSpec:
    """One training phase: corpus tokens, epochs, batch size, sequence length."""

    n_tok: float
    epochs: float
    batch_size: int
    seq_len: int

    def validate(self) -> None:
        """Counts must be positive; token and epoch counts also finite (NaN fails
        every comparison, so it is rejected too)."""
        if not (
            0 < self.n_tok < math.inf
            and 0 < self.epochs < math.inf
            and self.batch_size > 0
            and self.seq_len > 0
        ):
            raise ValueError(f"invalid phase: {self}")


@dataclass(frozen=True)
class TrainingPlan:
    phases: tuple[PhaseSpec, ...]
    steps: tuple[int, ...]

    @property
    def total_steps(self) -> int:
        return sum(self.steps)

    def as_dict(self) -> dict:
        return {
            "phases": [
                {
                    "tokens": p.n_tok,
                    "epochs": p.epochs,
                    "batch_size": p.batch_size,
                    "seq_len": p.seq_len,
                    "steps": s,
                }
                for p, s in zip(self.phases, self.steps)
            ],
            "total_steps": self.total_steps,
        }


def steps_for(phase: PhaseSpec) -> int:
    """Step count for one phase, floored to whole steps."""
    phase.validate()
    numer = Fraction(phase.n_tok) * Fraction(phase.epochs)
    denom = Fraction(phase.batch_size) * Fraction(phase.seq_len)
    return math.floor(numer / denom)


def make_plan(n_tok: float, phase_configs: list[tuple[float, int, int]]) -> TrainingPlan:
    """Assemble a plan from (epochs, batch_size, seq_len) phase configs.

    All phases share the same training-corpus token count.
    """
    if not phase_configs:
        raise ValueError("invalid phase: plan needs at least one phase")
    phases = tuple(
        PhaseSpec(n_tok=n_tok, epochs=e, batch_size=b, seq_len=l) for e, b, l in phase_configs
    )
    return TrainingPlan(phases=phases, steps=tuple(steps_for(p) for p in phases))
