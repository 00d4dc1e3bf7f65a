"""Executor tests: a trajectory's samples depend on its riders only.

The same seeded batch run through two fresh engines must produce the same
bytes: nothing about an engine instance (its start time, its thread, its
bindings) may leak into the trajectory's random stream.  The test uses a
real (tiny) fitted model, so the full denoise kernel runs.
"""

import numpy as np
import pytest

from repro.serve import ModelKey, ModelRegistry, ServeEngine

#: The smallest recipe the dataset builder can extract tiles for.
TINY_KEY = ModelKey(window=64, train_count=4)
SEEDS = (101, 202, 303, 404)


@pytest.fixture(scope="module")
def tiny_model():
    return ModelRegistry().get_or_fit(TINY_KEY)


def _run_engine(model):
    """Submit every seeded job before start, so one batch carries them all."""
    engine = ServeEngine(gather_window=0.01)
    client = engine.bind(model, label="tiny")
    jobs = [
        client.submit(count=3, condition=i % 2, seed=seed)
        for i, seed in enumerate(SEEDS)
    ]
    engine.start()
    try:
        samples = [job.result(timeout=240) for job in jobs]
    finally:
        engine.stop()
    return samples, engine.batch_records


class TestThreadDeterminism:
    def test_fresh_engines_give_identical_samples(self, tiny_model):
        first, first_records = _run_engine(tiny_model)
        second, second_records = _run_engine(tiny_model)
        for records in (first_records, second_records):
            assert [r.jobs for r in records] == [len(SEEDS)]
        assert len(first) == len(second) == len(SEEDS)
        for a, b in zip(first, second):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        assert not np.array_equal(first[0], first[1])
