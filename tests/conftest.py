import os
import time

# pin BLAS pools before numpy loads anywhere; see arflow/__init__.py
threads = os.environ.get("ARFLOW_THREADS", "1")
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, threads)

import pytest  # noqa: E402


@pytest.fixture(scope="session")
def trained_setup():
    """Default dataset plus the tiny model trained on it (shared by the
    acceptance criteria that need trained weights)."""
    import numpy as np

    from arflow import data as dt
    from arflow import model as mdl

    samples = dt.generate_mixed(2000, frames=16, contact_fraction=0.5, seed=0)
    skel = dt.default_skeleton()
    train_split, test_split = dt.train_test_split(samples)
    x0s, x1s = (np.stack([getattr(s, who) for s in train_split]) for who in ("actor", "reactor"))
    pcfg = mdl.PredictorConfig(frame_dim=skel.motion_dim, max_frames=16,
                               layers=2, width=64, heads=2, causal=True,
                               sigma_min=1e-4)
    tcfg = mdl.TrainConfig(steps=10000, batch_size=16, learning_rate=1e-3,
                           lambda_inter=1.0, seed=7)
    started = time.time()
    params, history = mdl.train(x0s, x1s, skel, pcfg, tcfg)
    return {
        "skel": skel,
        "train": train_split,
        "test": test_split,
        "params": params,
        "history": history,
        "train_seconds": time.time() - started,
    }
