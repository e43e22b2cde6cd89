"""F001 bad fixture: broad excepts unjustified, unreasoned or TODO-reasoned."""


def swallow_everything(action):
    try:
        return action()
    except Exception:  # line 7: no justification at all
        return None


def empty_reason(action):
    try:
        return action()
    except Exception:  # noqa: BLE001 —
        return None


def placeholder_reason(action):
    try:
        return action()
    except Exception:  # noqa: BLE001 — ToDo: justify this broad except
        return None
