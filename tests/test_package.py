"""The public surface of the package: exported names and removed helpers."""

import gradedmat
from gradedmat import chains, equivalence, gradings, groups

REMOVED = {
    groups: ("order_of",),
    equivalence: ("signature_of",),
    chains: ("run_cycle", "_STABILIZATION_SLACK", "_tuple_ideals"),
    gradings.Cocycle: ("is_cocycle",),
}


def test_every_exported_name_resolves_once():
    assert len(gradedmat.__all__) == len(set(gradedmat.__all__))
    for name in gradedmat.__all__:
        assert getattr(gradedmat, name) is not None, name


def test_removed_helpers_are_gone():
    for module, names in REMOVED.items():
        for name in names:
            assert name not in gradedmat.__all__
            assert not hasattr(gradedmat, name)
            assert not hasattr(module, name), f"{module.__name__}.{name}"
