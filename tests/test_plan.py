"""make_plan: each training phase's steps from the instances it reads."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bertpipe.jsonfile import FieldError
from bertpipe.pipeline import PhaseConfig, make_plan

# BERT's two phases (Devlin et al. 2019, A.2) over a 3.7G- and a 5.9G-token
# corpus, one instance per seq_len tokens
PAPER_PHASES = [
    (28_906_250, PhaseConfig(40, 1024, 128), 1_129_150),
    (7_226_562, PhaseConfig(4, 256, 512), 112_915),
    (46_093_750, PhaseConfig(40, 512, 128), 3_601_074),
    (11_523_437, PhaseConfig(4, 128, 512), 360_107),
]


@pytest.mark.parametrize("instances, phase, steps", PAPER_PHASES)
def test_paper_scale_phase_steps(instances, phase, steps):
    plan = make_plan([instances], [phase])
    assert plan.steps == (steps,)
    assert plan.total_steps == steps


@pytest.mark.parametrize(
    "instances, phases, total",
    [
        ([28_906_250, 7_226_562], [PhaseConfig(40, 1024, 128), PhaseConfig(4, 256, 512)], 1_242_065),
        ([46_093_750, 11_523_437], [PhaseConfig(40, 512, 128), PhaseConfig(4, 128, 512)], 3_961_181),
        # the trilingual benchmark corpus at seed 1: 2965 // 32 + 766 // 8
        ([2965, 766], [PhaseConfig(1, 32, 128), PhaseConfig(1, 8, 512)], 187),
    ],
)
def test_two_phase_total_is_the_sum_of_its_phases(instances, phases, total):
    plan = make_plan(instances, phases)
    assert plan.total_steps == sum(plan.steps) == total
    assert plan.steps == tuple(make_plan([n], [p]).total_steps for n, p in zip(instances, phases))


@pytest.mark.parametrize("batch", [1, 7, 8, 1024])
def test_a_partial_batch_is_no_step(batch):
    phase = PhaseConfig(1, batch, 128)
    assert make_plan([batch - 1], [phase]).steps == (0,)
    assert make_plan([batch], [phase]).steps == (1,)
    assert make_plan([2 * batch - 1], [phase]).steps == (1,)


@pytest.mark.parametrize(
    "instances, epochs, batch, steps",
    # Fraction(0.3) is just below 3/10: the decimal is what the config wrote
    [(100, 0.5, 10, 5), (100, 2.5, 8, 31), (3, 0.25, 1, 0), (10, 0.3, 1, 3)],
)
def test_fractional_epochs_read_part_of_the_instances(instances, epochs, batch, steps):
    assert make_plan([instances], [PhaseConfig(epochs, batch, 128)]).steps == (steps,)


def test_a_phase_without_instances_has_no_steps():
    plan = make_plan([0, 64], [PhaseConfig(3, 1, 128), PhaseConfig(1, 8, 512)])
    assert plan.steps == (0, 8)
    assert plan.total_steps == 8


@pytest.mark.parametrize(
    "instances, phases",
    [
        ([10, 20], [PhaseConfig(1, 8, 128)]),
        ([10], [PhaseConfig(1, 8, 128), PhaseConfig(1, 8, 512)]),
        ([], [PhaseConfig(1, 8, 128)]),
    ],
    ids=["more counts than phases", "fewer counts than phases", "no counts"],
)
def test_each_phase_needs_exactly_one_instance_count(instances, phases):
    with pytest.raises(ValueError):
        make_plan(instances, phases)


@pytest.mark.parametrize(
    "phases, key",
    [
        ([PhaseConfig(1, 0, 128)], "phases[0].batch_size"),
        ([PhaseConfig(1, 8, 128), PhaseConfig(0, 8, 512)], "phases[1].epochs"),
        ([PhaseConfig(1, 8, 8)], "phases[0].seq_len"),
    ],
)
def test_a_phase_out_of_its_bounds_is_a_field_error_naming_it(phases, key):
    with pytest.raises(FieldError) as error:
        make_plan([10] * len(phases), phases)
    assert error.value.key == key


def test_as_dict_is_the_plan_json():
    plan = make_plan([100, 30], [PhaseConfig(2, 16, 128), PhaseConfig(0.5, 4, 512)])
    d = json.loads(json.dumps(plan.as_dict()))
    assert d == {
        "phases": [
            {"epochs": 2, "batch_size": 16, "seq_len": 128, "instances": 100, "steps": 12},
            {"epochs": 0.5, "batch_size": 4, "seq_len": 512, "instances": 30, "steps": 3},
        ],
        "total_steps": 15,
    }
    assert type(d["phases"][0]["epochs"]) is int


@given(
    instances=st.integers(0, 10**9),
    epochs=st.integers(1, 50),
    batch=st.integers(1, 4096),
    k=st.integers(2, 8),
)
def test_steps_scale_with_the_instances_up_to_the_floor(instances, epochs, batch, k):
    base = make_plan([instances], [PhaseConfig(epochs, batch, 128)]).total_steps
    scaled = make_plan([instances * k], [PhaseConfig(epochs, batch, 128)]).total_steps
    assert k * base <= scaled <= k * base + k - 1


@given(
    instances=st.integers(0, 10**9),
    epochs=st.one_of(st.integers(1, 100), st.floats(1e-3, 100, allow_nan=False)),
    batch=st.integers(1, 4096),
    k=st.integers(2, 8),
)
def test_k_times_the_batch_takes_a_kth_of_the_steps_floored(instances, epochs, batch, k):
    small = make_plan([instances], [PhaseConfig(epochs, batch, 128)]).total_steps
    large = make_plan([instances], [PhaseConfig(epochs, batch * k, 128)]).total_steps
    assert large == small // k


@given(
    phases=st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.one_of(st.integers(1, 100), st.floats(1e-3, 100, allow_nan=False)),
            st.integers(1, 4096),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_plan_steps_are_the_full_batches(phases):
    plan = make_plan([n for n, _, _ in phases], [PhaseConfig(epochs, batch, 128) for _, epochs, batch in phases])
    for (n, epochs, batch), steps in zip(phases, plan.steps, strict=True):
        assert steps * batch <= n * Fraction(repr(epochs)) < (steps + 1) * batch
    assert plan.total_steps == sum(plan.steps)


@given(
    instances=st.integers(0, 10**12),
    epochs=st.one_of(
        st.floats(0, exclude_min=True, allow_nan=False, allow_infinity=False),
        st.integers(1, 10**6),
        st.sampled_from([1e-05, 1.5e16, 2.675, 5e-324, 1.7976931348623157e308]),
    ),
    batch=st.integers(1, 4096),
)
# Fraction(*(0.3).as_integer_ratio()) is just below 3/10 and gives 2 steps
@example(instances=10, epochs=0.3, batch=1)
def test_steps_are_the_exact_floor_over_the_decimal_of_epochs(instances, epochs, batch):
    [steps] = make_plan([instances], [PhaseConfig(epochs, batch, 128)]).steps
    assert steps == math.floor(instances * Fraction(repr(epochs)) / batch)
