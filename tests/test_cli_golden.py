"""`adkit diff` byte for byte: stdout, stderr and the exit code of every
mode, in text and in --json, of a flag error for each mode, of a flag each
mode does not read, of the order in which the checks run, and of
`adkit diff --help`."""

import contextlib
import io

import pytest

from adkit.cli import main

GOLDEN = [
    pytest.param(
        ['diff', 'f(x1,x2)=x2*cos(x1*x1+3)', '--at', '5,2', '--mode', 'forward', '--dir', '1,0'],
        0,
        (
            'value: [-1.9252117326271332]\n'
            'tangent: [-5.418115766157381]\n'
        ),
        '',
        id='forward',
    ),
    pytest.param(
        ['diff', 'f(x1,x2)=x2*cos(x1*x1+3)', '--at', '5,2', '--mode', 'forward', '--dir', '1,0', '--json'],
        0,
        '{"function": "f(x1,x2)=x2*cos(x1*x1+3)", "mode": "forward", "point": [5.0, 2.0], "seed": [1.0, 0.0], "value": [-1.9252117326271332], "derivative": [[-5.418115766157381]]}\n',
        '',
        id='forward-json',
    ),
    pytest.param(
        ['diff', 'f(x,y)=(x*y, x/y)', '--at', '-0.5,2', '--dir', '1,-1'],
        0,
        (
            'value: [-1.0, -0.25]\n'
            'tangent: [2.5, 0.375]\n'
        ),
        '',
        id='forward-default-mode',
    ),
    pytest.param(
        ['diff', 'f(x)=(x*x, 0*x*x)', '--at', '1e200', '--dir', '1', '--json'],
        0,
        '{"function": "f(x)=(x*x, 0*x*x)", "mode": "forward", "point": [1e+200], "seed": [1.0], "value": ["inf", 0.0], "derivative": [[2e+200, 0.0]]}\n',
        '',
        id='forward-non-finite-json',
    ),
    pytest.param(
        ['diff', 'f(x)=sin(x)', '--at', '1'],
        3,
        '',
        'adkit: --mode forward requires --dir\n',
        id='forward-no-dir',
    ),
    pytest.param(
        ['diff', 'f(x)=sin(x)', '--at', '1', '--dir', '1', '--cov', '1'],
        3,
        '',
        'adkit: --mode forward does not take --cov\n',
        id='forward-unread-cov',
    ),
    pytest.param(
        ['diff', 'f(x)=sin(x)', '--at', '1', '--dir', '1,2'],
        3,
        '',
        'adkit: --dir must supply 1 value(s)\n',
        id='forward-dir-length',
    ),
    pytest.param(
        ['diff', 'f(x)=sin(x)', '--at', '1', '--dir', '1,'],
        3,
        '',
        "adkit: could not parse --dir '1,' as comma-separated reals\n",
        id='forward-dir-unparsable',
    ),
    pytest.param(
        ['diff', 'f(x)=(x, exp(x)*sin(x))', '--at', '5', '--mode', 'reverse', '--cov', '1,1'],
        0,
        (
            'value: [5.0, -142.31698094290323]\n'
            'gradient: [-99.21777988036484]\n'
        ),
        '',
        id='reverse',
    ),
    pytest.param(
        ['diff', 'f(x)=(x, exp(x)*sin(x))', '--at', '5', '--mode', 'reverse', '--cov', '1,1', '--json'],
        0,
        '{"function": "f(x)=(x, exp(x)*sin(x))", "mode": "reverse", "point": [5.0], "seed": [1.0, 1.0], "value": [5.0, -142.31698094290323], "derivative": [[-99.21777988036484]]}\n',
        '',
        id='reverse-json',
    ),
    pytest.param(
        ['diff', 'f(x)=(x, exp(x)*sin(x))', '--at', '5', '--mode', 'reverse', '--dir', '1'],
        3,
        '',
        'adkit: --mode reverse requires --cov\n',
        id='reverse-no-cov',
    ),
    pytest.param(
        ['diff', 'f(x)=(x, exp(x)*sin(x))', '--at', '5', '--mode', 'reverse', '--cov', '1,1', '--dir', '1'],
        3,
        '',
        'adkit: --mode reverse does not take --dir\n',
        id='reverse-unread-dir',
    ),
    pytest.param(
        ['diff', 'f(x)=(x, exp(x)*sin(x))', '--at', '5', '--mode', 'reverse', '--cov', '1'],
        3,
        '',
        'adkit: --cov must supply 2 value(s)\n',
        id='reverse-cov-length',
    ),
    pytest.param(
        ['diff', 'f(x)=x', '--at', '5', '--mode', 'reverse', '--cov', 'one'],
        3,
        '',
        "adkit: could not parse --cov 'one' as comma-separated reals\n",
        id='reverse-cov-unparsable',
    ),
    pytest.param(
        ['diff', 'f(a,b)=exp(a*b)+sin(b)', '--at', '1,2', '--mode', 'jet', '--order', '2'],
        0,
        (
            'value: [8.298353525756331]\n'
            'd[0,0]: 8.298353525756331\n'
            'd[0,1]: 6.972909262383508\n'
            'd[1,0]: 14.7781121978613\n'
            'd[0,2]: 6.4797586721049685\n'
            'd[1,1]: 22.16716829679195\n'
            'd[2,0]: 29.5562243957226\n'
        ),
        '',
        id='jet',
    ),
    pytest.param(
        ['diff', 'f(a,b)=exp(a*b)+sin(b)', '--at', '1,2', '--mode', 'jet', '--order', '2', '--json'],
        0,
        '{"function": "f(a,b)=exp(a*b)+sin(b)", "mode": "jet", "point": [1.0, 2.0], "seed": [], "value": [8.298353525756331], "derivative": [{"multi_index": [0, 0], "value": 8.298353525756331}, {"multi_index": [0, 1], "value": 6.972909262383508}, {"multi_index": [1, 0], "value": 14.7781121978613}, {"multi_index": [0, 2], "value": 6.4797586721049685}, {"multi_index": [1, 1], "value": 22.16716829679195}, {"multi_index": [2, 0], "value": 29.5562243957226}]}\n',
        '',
        id='jet-json',
    ),
    pytest.param(
        ['diff', 'f(x,y)=(x, y)', '--at', '1,2', '--mode', 'jet'],
        3,
        '',
        'adkit: --mode jet requires --order\n',
        id='jet-no-order',
    ),
    pytest.param(
        ['diff', 'f(x,y)=x*y', '--at', '1,2', '--mode', 'jet', '--order', '2', '--dir', '1,0'],
        3,
        '',
        'adkit: --mode jet does not take --dir\n',
        id='jet-unread-dir',
    ),
    pytest.param(
        ['diff', 'f(x,y)=(x, y)', '--at', '1,2', '--mode', 'jet', '--order', '2'],
        3,
        '',
        'adkit: --mode jet supports single-output functions\n',
        id='jet-two-outputs',
    ),
    pytest.param(
        ['diff', 'f(x)=sin(x)', '--at', '1', '--mode', 'jet', '--order', '0'],
        3,
        '',
        'adkit: --mode jet requires --order in 1..12\n',
        id='jet-order-range',
    ),
    pytest.param(
        ['diff', 'f(a,b,c,d,e,f,g,h)=a*b*c*d*e*f*g*h', '--at', '1,1,1,1,1,1,1,1', '--mode', 'jet', '--order', '12'],
        3,
        '',
        'adkit: --mode jet: a jet in 8 variables to order 12 holds 125970 coefficients, more than 2000\n',
        id='jet-too-many-coefficients',
    ),
    pytest.param(
        ['diff', 'f(x)=exp(sin(x))', '--at', '0.5', '--mode', 'tower', '--order', '4'],
        0,
        (
            'value: [1.6151462964420837]\n'
            'derivatives 0..4: [1.6151462964420837, 1.4174242246593913, 0.46956439926573423, -2.3644414408552015, -5.707734036177335]\n'
        ),
        '',
        id='tower',
    ),
    pytest.param(
        ['diff', 'f(x)=exp(sin(x))', '--at', '0.5', '--mode', 'tower', '--order', '4', '--json'],
        0,
        '{"function": "f(x)=exp(sin(x))", "mode": "tower", "point": [0.5], "seed": [], "value": [1.6151462964420837], "derivative": [[1.6151462964420837, 1.4174242246593913, 0.46956439926573423, -2.3644414408552015, -5.707734036177335]]}\n',
        '',
        id='tower-json',
    ),
    pytest.param(
        ['diff', 'f(x)=sqrt(x)', '--at', '4', '--mode', 'tower', '--order', '0'],
        0,
        (
            'value: [2.0]\n'
            'derivatives 0..0: [2.0]\n'
        ),
        '',
        id='tower-order-zero',
    ),
    pytest.param(
        ['diff', 'f(x,y)=x', '--at', '1,2', '--mode', 'tower'],
        3,
        '',
        'adkit: --mode tower requires --order\n',
        id='tower-no-order',
    ),
    pytest.param(
        ['diff', 'f(x)=x', '--at', '1', '--mode', 'tower', '--order', '2', '--cov', '1'],
        3,
        '',
        'adkit: --mode tower does not take --cov\n',
        id='tower-unread-cov',
    ),
    pytest.param(
        ['diff', 'f(x,y)=x', '--at', '1,2', '--mode', 'tower', '--order', '2'],
        3,
        '',
        'adkit: --mode tower supports univariate single-output functions\n',
        id='tower-two-inputs',
    ),
    pytest.param(
        ['diff', 'f(x)=x', '--at', '1', '--mode', 'tower', '--order', '-1'],
        3,
        '',
        'adkit: --mode tower requires --order >= 0 and <= 1020\n',
        id='tower-order-range',
    ),
    pytest.param(
        ['diff', 'f(x)=ln(x)', '--at', '-1', '--mode', 'tower', '--order', '2'],
        2,
        '',
        'adkit: domain error: ln undefined on (-1.0,) (at out0)\n',
        id='tower-domain-error',
    ),
    pytest.param(
        ['diff', 'f(x,y)=(x*y, sin(x)/y)', '--at', '1,2', '--mode', 'jacobian'],
        0,
        (
            'value: [2.0, 0.42073549240394825]\n'
            'jacobian row: [2.0, 1.0]\n'
            'jacobian row: [0.2701511529340699, -0.21036774620197413]\n'
        ),
        '',
        id='jacobian',
    ),
    pytest.param(
        ['diff', 'f(x,y)=(x*y, sin(x)/y)', '--at', '1,2', '--mode', 'jacobian', '--json'],
        0,
        '{"function": "f(x,y)=(x*y, sin(x)/y)", "mode": "jacobian", "point": [1.0, 2.0], "seed": [], "value": [2.0, 0.42073549240394825], "derivative": [[2.0, 1.0], [0.2701511529340699, -0.21036774620197413]]}\n',
        '',
        id='jacobian-json',
    ),
    pytest.param(
        ['diff', 'f(x,y)=(x*y, sin(x)/y)', '--at', '1,2', '--mode', 'jacobian', '--dir', '1,0', '--order', '3'],
        3,
        '',
        'adkit: --mode jacobian does not take --dir\n',
        id='jacobian-unread-dir-and-order',
    ),
    pytest.param(
        ['diff', 'f(x,y)=(x*y, sin(x)/y)', '--at', '1', '--mode', 'jacobian'],
        3,
        '',
        'adkit: --at must supply 2 value(s), got 1\n',
        id='jacobian-at-length',
    ),
    pytest.param(
        ['diff', 'f(x)=sqrt(x)', '--at', '-1', '--mode', 'jacobian'],
        2,
        '',
        'adkit: domain error: sqrt undefined on (-1.0,) (at out0)\n',
        id='jacobian-domain-error',
    ),
    pytest.param(
        ['diff', 'f(x)=x', '--at', '1,2', '--mode', 'jet'],
        3,
        '',
        'adkit: --at must supply 1 value(s), got 2\n',
        id='at-before-mode-flags',
    ),
    pytest.param(
        ['diff', 'f(x)=x+', '--at', '1,2', '--mode', 'forward'],
        1,
        '',
        "adkit: parse error: expected an expression, found 'end of input' (line 1, column 8)\n",
        id='parse-before-flags',
    ),
    pytest.param(
        ['diff', 'f(x)=x', '--at', '1', '--mode', 'hessian'],
        3,
        '',
        "adkit: argument --mode: invalid choice: 'hessian' (choose from 'forward', 'reverse', 'jet', 'tower', 'jacobian')\n",
        id='unknown-mode',
    ),
    pytest.param(
        ['diff', '--help'],
        0,
        (
            'usage: adkit diff [-h] --at AT [--mode {forward,reverse,jet,tower,jacobian}]\n'
            '                  [--dir DIRECTION] [--cov COVECTOR] [--order ORDER] [--json]\n'
            '                  expression\n'
            '\n'
            'positional arguments:\n'
            '  expression\n'
            '\n'
            'options:\n'
            '  -h, --help            show this help message and exit\n'
            '  --at AT               evaluation point c1,...,cn\n'
            '  --mode {forward,reverse,jet,tower,jacobian}\n'
            "  --dir DIRECTION       forward seed x'1,...,x'n\n"
            "  --cov COVECTOR        reverse seed y'1,...,y'm\n"
            '  --order ORDER         truncation/derivative order\n'
            '  --json                emit the JSON report\n'
        ),
        '',
        id='diff-help',
    ),
]


@pytest.mark.parametrize("argv, code, stdout, stderr", GOLDEN)
def test_diff_output_is_pinned(monkeypatch, argv, code, stdout, stderr):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = main(argv)
        except SystemExit as exit:  # --help
            got = exit.code
    assert (got, out.getvalue(), err.getvalue()) == (code, stdout, stderr)
