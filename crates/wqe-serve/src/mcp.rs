//! An MCP (Model Context Protocol) stdio tool: JSON-RPC 2.0, one message
//! per line, exposing a single `ask_why` tool over the same
//! [`ServeCtx`] the HTTP front-end serves.
//!
//! The loop is transport-generic (`BufRead` in, `Write` out) so tests can
//! drive it with in-memory buffers; `serve --mcp` in the CLI binds it to
//! stdin/stdout. Per JSON-RPC, requests carrying an `id` always get a
//! reply; notifications (no `id`) never do. The envelope and the
//! `tools/call` params are derived and strict: a malformed envelope gets
//! `-32600` (invalid request) and bad params `-32602` (invalid params).

use crate::{parse_request, response_json, ServeCtx};
use serde::{DeError, Deserialize};
use serde_json::{json, Value};
use std::io::{self, BufRead, Write};

/// The MCP protocol revision this server speaks.
pub const PROTOCOL_VERSION: &str = "2024-11-05";

fn rpc_result(id: &Value, result: Value) -> Value {
    json!({ "jsonrpc": "2.0", "id": id, "result": result })
}

fn rpc_error(id: &Value, code: i64, message: String) -> Value {
    json!({
        "jsonrpc": "2.0",
        "id": id,
        "error": { "code": code, "message": message },
    })
}

/// The `ask_why` tool. Its input schema describes
/// [`wqe_core::spec::Request`] key for key, less `diff`, which only
/// `POST /v1/why` takes; a test holds the two key sets equal.
fn tool_list() -> Value {
    let object = |description: &str, properties: Value, required: Value| {
        json!({
            "type": "object", "description": description, "properties": properties,
            "required": required, "additionalProperties": false
        })
    };
    let array = |description: &str| json!({ "type": "array", "description": description });
    let query = object(
        "The pattern query.",
        json!({
            "max_bound": { "type": "integer", "minimum": 0, "maximum": u32::MAX, "description": "Largest edge bound (default 4)." },
            "nodes": array("[{id?, label?, focus?, literals?: [{attr, op, value}]}]: id defaults to \"node<index>\", \
                            label to any label; at most one node says focus (default: the first). \
                            op is <, <=, = (or ==), >= or >; value a number, string or boolean."),
            "edges": array("[{from, to, bound?}]: node ids; bound is 1 to max_bound (default 1).")
        }),
        json!(["nodes"]),
    );
    let exemplar = object(
        "The exemplar the answers should match.",
        json!({
            "tuples": array("[{attribute: constant | \"?\" (variable) | \"_\" (wildcard)}]"),
            "constraints": array("[{lhs: {tuple, attr}, op, var: {tuple, attr} | value}]: exactly one of var and value.")
        }),
        json!(["tuples"]),
    );
    json!([{
        "name": "ask_why",
        "description": "Answer a why-question by exemplars over the loaded attributed graph: \
                        given a pattern query and an exemplar of the answers it should have \
                        returned, returns the top-k cheapest query rewrites whose answers best \
                        match the exemplar, with closeness scores and the operator sequence for \
                        each. Unknown keys are errors.",
        "inputSchema": object("A why-question and its serving keys.", json!({
            "query": query,
            "exemplar": exemplar,
            "algo": { "type": "string", "description": "answ (default), answnc, answb, heu, heub:SEED, fm, whymany, whyempty" },
            "priority": { "type": "string", "enum": ["high", "normal", "low"], "description": "Default normal." },
            "deadline_ms": { "type": "number", "description": "Per-request deadline override." },
            "tenant": { "type": "string", "description": "Rate-limiting identity." },
            "epoch": { "type": "integer", "minimum": 0, "description": "A live epoch to pin (default: the head)." },
            "stream": { "type": "boolean", "description": "Ignored: tool answers are not streamed." }
        }), json!(["query", "exemplar"]))
    }])
}

/// A JSON-RPC 2.0 request or notification (no `id`).
#[derive(Deserialize)]
#[serde(deny_unknown_fields)]
struct Envelope {
    jsonrpc: String,
    id: Option<Value>,
    method: String,
    params: Option<Value>,
}

/// The params of `tools/call`. `_meta` (e.g. a progress token) is
/// allowed on every request's params by MCP and ignored here.
#[derive(Deserialize)]
#[serde(deny_unknown_fields)]
struct CallParams {
    name: String,
    arguments: Value,
    _meta: Option<Value>,
}

fn call_tool(ctx: &ServeCtx, params: Option<&Value>) -> Result<Value, String> {
    let params = params.ok_or("tools/call needs params")?;
    let CallParams {
        name, arguments, ..
    } = CallParams::from_value(params).map_err(|e| format!("params: {e}"))?;
    if name != "ask_why" {
        return Err(format!("unknown tool {name:?}"));
    }
    let (request, _stream) = parse_request(&ctx.head_graph(), &arguments)?;
    let response = ctx.service.call(request);
    let is_error = response.report().is_none();
    let body = response_json(&response);
    let text = serde_json::to_string_pretty(&body).unwrap_or_else(|_| body.to_string());
    Ok(json!({
        "content": [{ "type": "text", "text": text }],
        "isError": is_error,
    }))
}

/// Handles one decoded JSON-RPC message; `None` means no reply is owed
/// (a notification). A message that is not a JSON-RPC 2.0 request gets
/// `-32600` under its `id` when it has a usable one, else under `null`.
fn handle_message(ctx: &ServeCtx, msg: &Value) -> Option<Value> {
    let envelope = Envelope::from_value(msg).and_then(|e| match e.jsonrpc.as_str() {
        "2.0" => Ok(e),
        _ => Err(DeError::custom("expected \"2.0\"").at_field("jsonrpc")),
    });
    let Envelope {
        id, method, params, ..
    } = match envelope {
        Ok(e) => e,
        Err(e) => {
            let id = msg
                .get("id")
                .filter(|v| matches!(v, Value::String(_) | Value::Number(_)));
            let message = format!("invalid request: {e}");
            return Some(rpc_error(id.unwrap_or(&Value::Null), -32600, message));
        }
    };
    let reply = match method.as_str() {
        "initialize" => Some(Ok(json!({
            "protocolVersion": PROTOCOL_VERSION,
            "capabilities": { "tools": {} },
            "serverInfo": {
                "name": "wqe-serve",
                "version": env!("CARGO_PKG_VERSION"),
            },
        }))),
        "notifications/initialized" | "notifications/cancelled" => None,
        "tools/list" => Some(Ok(json!({ "tools": tool_list() }))),
        "tools/call" => Some(call_tool(ctx, params.as_ref()).map_err(|e| (-32602i64, e))),
        "ping" => Some(Ok(json!({}))),
        other => Some(Err((-32601i64, format!("method {other:?} not found")))),
    };
    // A reply is owed only for requests (id present), never notifications.
    let id = id.filter(|v| !v.is_null())?;
    match reply? {
        Ok(result) => Some(rpc_result(&id, result)),
        Err((code, message)) => Some(rpc_error(&id, code, message)),
    }
}

/// Runs the JSON-RPC loop until `reader` reaches EOF. Blank lines are
/// skipped; a line that is not JSON gets a `-32700` parse error (with a
/// null id, as the real one is unrecoverable).
pub fn serve_mcp<R: BufRead, W: Write>(
    ctx: &ServeCtx,
    reader: R,
    writer: &mut W,
) -> io::Result<()> {
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let reply = match serde_json::from_str::<Value>(&line) {
            Ok(msg) => handle_message(ctx, &msg),
            Err(e) => Some(rpc_error(&Value::Null, -32700, format!("parse error: {e}"))),
        };
        if let Some(reply) = reply {
            writeln!(writer, "{reply}")?;
            writer.flush()?;
        }
    }
    Ok(())
}
