"""The package exports exactly the names its modules declare public, each declared once."""

import qcfc
from qcfc import errors, metrics, phantom, pipelines, regression

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
