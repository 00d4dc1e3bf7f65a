"""Executor-tier tests: a trajectory's samples depend on its riders only.

The engine's thread pool may hand a batch to any worker, so the same
seeded batch must produce the same bytes whatever the pool size.  The
test uses a real (tiny) fitted model, so the full denoise kernel runs.
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


def _run_engine(model, workers):
    """Submit every seeded job before start, so one batch carries them all."""
    engine = ServeEngine(engine_workers=workers, gather_window=0.01)
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
    def test_worker_count_does_not_change_samples(self, tiny_model):
        one, one_records = _run_engine(tiny_model, workers=1)
        two, two_records = _run_engine(tiny_model, workers=2)
        for records in (one_records, two_records):
            assert [r.jobs for r in records] == [len(SEEDS)]
        assert len(one) == len(two) == len(SEEDS)
        for a, b in zip(one, two):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        assert not np.array_equal(one[0], one[1])
