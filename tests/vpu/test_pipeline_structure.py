"""Structural guards on the two pipeline implementations.

``VectorPipeline`` (span-charging scheduler) and ``ReferencePipeline``
(per-cycle stepper) share one model in ``PipelineModel``.  These tests keep
it that way: a model method copied back into both subclasses, or a shared
method overridden by a subclass, fails here instead of silently splitting
the model in two.
"""

import ast
import inspect
import textwrap

from repro.vpu.pipeline import PipelineModel, VectorPipeline
from repro.vpu.reference import ReferencePipeline

#: What the reference keeps: its per-cycle stepper and the un-inlined stage
#: bodies the scheduler's inlined copies are checked against.
REFERENCE_STEPPER = {"run", "_step", "_fast_forward", "_head_wait_time",
                     "_ready", "_issue_memory", "_issue_arith",
                     "_issue_swap_bypass", "_ensure_operands"}
REFERENCE_SPEC_STAGES = {"_rename", "_dispatch", "_pre_issue", "_commit",
                         "_retire", "_complete", "_execute_arith",
                         "_execute_memory"}


def _methods(cls) -> dict:
    """Name -> function for every method defined in ``cls`` itself."""
    out = {}
    for name, value in vars(cls).items():
        if isinstance(value, property):
            value = value.fget
        elif isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if inspect.isfunction(value):
            out[name] = value
    return out


def _ast_without_docstring(func) -> str:
    node = ast.parse(textwrap.dedent(inspect.getsource(func))).body[0]
    body = node.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        node.body = body[1:]
    return ast.dump(node)


def test_no_method_body_is_duplicated_across_pipelines():
    sched = _methods(VectorPipeline)
    ref = _methods(ReferencePipeline)
    copies = sorted(name for name in sched.keys() & ref.keys()
                    if _ast_without_docstring(sched[name])
                    == _ast_without_docstring(ref[name]))
    assert not copies, (
        f"identical in VectorPipeline and ReferencePipeline; move them to "
        f"PipelineModel: {copies}")


def test_subclasses_do_not_override_the_shared_model():
    model = _methods(PipelineModel).keys()
    # VectorPipeline extends the constructor with its scheduler memo state.
    assert model & _methods(VectorPipeline).keys() == {"__init__"}
    assert not model & _methods(ReferencePipeline).keys()


def test_reference_keeps_only_stepper_and_spec_stage_bodies():
    assert set(_methods(ReferencePipeline)) == (REFERENCE_STEPPER
                                                | REFERENCE_SPEC_STAGES)
