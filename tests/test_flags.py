"""Flag scopes: nesting, exceptions and context isolation of ``collect()``."""

import contextvars
import threading

import pytest

from chebgamma._flags import collect, flag


def test_a_flag_reaches_every_open_nested_scope():
    with collect() as outer:
        flag("before")
        with collect() as middle:
            with collect() as inner:
                flag("deep")
            flag("middle")
        flag("after")
    assert inner == {"deep"}
    assert middle == {"deep", "middle"}
    assert outer == {"before", "deep", "middle", "after"}


def test_a_flag_outside_every_scope_goes_nowhere():
    flag("unheard")
    with collect() as seen:
        pass
    assert seen == set()


def test_a_scope_is_gone_after_an_exception_inside_it():
    with collect() as outer:
        with pytest.raises(ZeroDivisionError):
            with collect() as inner:
                flag("inside")
                1 / 0
        flag("later")
    assert inner == {"inside"}
    assert outer == {"inside", "later"}
    with collect() as fresh:
        pass
    flag("stray")
    assert fresh == set() and "stray" not in outer


def test_a_flag_in_a_copied_context_stays_there():
    snapshot = contextvars.copy_context()
    got = []

    def in_snapshot():
        flag("snapshot-only")
        with collect() as own:
            flag("own")
        got.append(own)

    with collect() as seen:
        snapshot.run(in_snapshot)
        flag("caller")
    assert got == [{"own"}]
    assert seen == {"caller"}


def test_a_flag_in_another_thread_stays_there():
    got = []

    def worker():
        flag("thread-only")
        with collect() as own:
            flag("own")
        got.append(own)

    with collect() as seen:
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        flag("caller")
    assert not thread.is_alive()
    assert got == [{"own"}]
    assert seen == {"caller"}
