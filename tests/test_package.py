"""The package exports exactly the names its modules declare public, each declared once,
and its records compare as their kind needs."""

import dataclasses

import qcfc
from qcfc import errors, metrics, phantom, pipelines, regression

from .conftest import TINY_CFG

MODULES = (errors, regression, pipelines, metrics, phantom)


def test_package_exports_its_modules_all():
    assert qcfc.__all__ == ["__version__", *(name for m in MODULES for name in m.__all__)]
    assert len(set(qcfc.__all__)) == len(qcfc.__all__)
    namespace = {}
    exec("from qcfc import *", namespace)
    for module in MODULES:
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)
    assert namespace["__version__"] == qcfc.__version__


def test_records_holding_arrays_compare_by_identity_and_hash():
    """Two records with equal arrays are two records: `==` is `is`, and either can be a dict key."""

    def records():
        cohort = qcfc.generate_cohort(qcfc.PhantomConfig.from_dict(TINY_CFG))
        bundle = cohort.bundles[0]
        fcs = [qcfc.fc_matrix(b.ts) for b in cohort.bundles]
        mfds = [qcfc.mean_fd(qcfc.framewise_displacement(b.motion)) for b in cohort.bundles]
        return (
            cohort, bundle, bundle.ts, bundle.motion, bundle.aroma,
            cohort.parcellation, fcs[0], qcfc.qcfc(fcs, mfds),
        )

    for first, twin in zip(records(), records()):
        assert first == first and first != twin
        assert len({first, twin, first}) == 2


def test_json_records_compare_by_value():
    config, twin = (qcfc.PhantomConfig.from_dict(TINY_CFG) for _ in range(2))
    assert config is not twin and config == twin and hash(config) == hash(twin)
    assert config != dataclasses.replace(config, seed=config.seed + 1)
