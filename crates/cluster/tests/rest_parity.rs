//! REST parity between a bare controller and a one-partition cluster.
//!
//! `PesosController::handle` and `ControllerCluster::handle` dispatch the
//! same `ClientRequest` surface independently. One scripted request
//! sequence — every method except `Status` and `Stats`, successes and the
//! malformed-request errors — is sent to each, and every response must
//! agree on status, body, version and operation id. The one intended
//! difference is the transaction id a `CreateTx` returns: cluster ids carry
//! [`CLUSTER_TX_BIT`], so `CreateTx` bodies are compared with the tag
//! cleared.

use pesos_cluster::{ClusterConfig, ControllerCluster, CLUSTER_TX_BIT};
use pesos_core::{ClientRequest, ClientResponse, ControllerConfig, PesosController};
use pesos_wire::{RestMethod, RestRequest};

const CLIENT: &str = "alice";

const ACL: &str = "read :- sessionKeyIs(\"alice\")\n\
                   update :- sessionKeyIs(\"alice\")\n\
                   delete :- sessionKeyIs(\"alice\")";

/// A valid policy id no policy was ever installed under.
const UNKNOWN_POLICY: &str = "00000000000000000000000000000000000000000000000000000000000000ff";

/// Sends the script through `send`, calling `drain` where asynchronous
/// writes must have landed, and returns every response with its label.
fn transcript(
    send: &dyn Fn(RestRequest) -> ClientResponse,
    drain: &dyn Fn(),
) -> Vec<(&'static str, ClientResponse)> {
    let mut out = Vec::new();
    let mut step = |label: &'static str, request: RestRequest| {
        let response = send(request);
        out.push((label, response.clone()));
        response
    };
    let body = |r: &ClientResponse| String::from_utf8(r.value.clone()).unwrap();
    let in_tx = |method: RestMethod, key: &str, tx: Option<u64>| {
        let mut request = RestRequest::new(method, key);
        request.tx_id = tx;
        request
    };

    // Policies.
    let mut put_policy = RestRequest::new(RestMethod::PutPolicy, "");
    put_policy.value = ACL.as_bytes().to_vec();
    let policy = body(&step("put policy", put_policy));
    let mut bad_source = RestRequest::new(RestMethod::PutPolicy, "");
    bad_source.value = b"read :- teleport(X)".to_vec();
    step("put policy, unknown predicate", bad_source);
    let mut not_utf8 = RestRequest::new(RestMethod::PutPolicy, "");
    not_utf8.value = vec![0xff, 0xfe];
    step("put policy, not UTF-8", not_utf8);
    step(
        "get policy",
        RestRequest::new(RestMethod::GetPolicy, policy.as_str()),
    );
    step(
        "get policy, bad id",
        RestRequest::new(RestMethod::GetPolicy, "zz"),
    );
    step(
        "get policy, unknown id",
        RestRequest::new(RestMethod::GetPolicy, UNKNOWN_POLICY),
    );

    // Synchronous puts, compare-and-swap, and a bad policy id.
    step(
        "put v0 with policy",
        RestRequest::put("doc", b"v0".to_vec()).with_policy(policy.as_str()),
    );
    step(
        "put, bad policy id",
        RestRequest::put("doc", b"x".to_vec()).with_policy("zz"),
    );
    step(
        "put, unknown policy",
        RestRequest::put("other", b"x".to_vec()).with_policy(UNKNOWN_POLICY),
    );
    step(
        "put v1 expecting 1",
        RestRequest::put("doc", b"v1".to_vec()).with_version(1),
    );
    step(
        "put expecting stale 1",
        RestRequest::put("doc", b"stale".to_vec()).with_version(1),
    );

    // An asynchronous put and its result.
    let accepted = step(
        "async put v2",
        RestRequest::put("doc", b"v2".to_vec()).asynchronous(),
    );
    drain();
    let op = accepted.operation_id.unwrap().to_string();
    step(
        "poll result",
        RestRequest::new(RestMethod::PollResult, op.as_str()),
    );
    step(
        "poll result, non-numeric id",
        RestRequest::new(RestMethod::PollResult, "abc"),
    );
    step(
        "poll result, unknown id",
        RestRequest::new(RestMethod::PollResult, "999999"),
    );

    // Latest and versioned reads.
    step("get latest", RestRequest::get("doc"));
    step("get version 0", RestRequest::get("doc").with_version(0));
    step("get missing", RestRequest::get("missing"));

    // Policy attachment.
    step(
        "attach policy",
        RestRequest::new(RestMethod::AttachPolicy, "doc").with_policy(policy.as_str()),
    );
    step(
        "attach policy, no id",
        RestRequest::new(RestMethod::AttachPolicy, "doc"),
    );
    step(
        "attach policy, bad id",
        RestRequest::new(RestMethod::AttachPolicy, "doc").with_policy("zz"),
    );
    step(
        "attach policy, missing object",
        RestRequest::new(RestMethod::AttachPolicy, "missing").with_policy(policy.as_str()),
    );

    // Deletes.
    step("delete", RestRequest::delete("doc"));
    step("get deleted", RestRequest::get("doc"));
    step("delete again", RestRequest::delete("doc"));

    // A committed transaction, then an aborted one.
    step("put acct/a", RestRequest::put("acct/a", b"50".to_vec()));
    step("put acct/b", RestRequest::put("acct/b", b"50".to_vec()));
    let created = step("create tx", RestRequest::new(RestMethod::CreateTx, ""));
    let tx: u64 = body(&created).parse().unwrap();
    step("add read", in_tx(RestMethod::AddRead, "acct/a", Some(tx)));
    let mut write = in_tx(RestMethod::AddWrite, "acct/b", Some(tx));
    write.value = b"70".to_vec();
    step("add write", write);
    step("commit tx", in_tx(RestMethod::CommitTx, "", Some(tx)));
    step(
        "check results",
        in_tx(RestMethod::CheckResults, "", Some(tx)),
    );
    step("get tx write", RestRequest::get("acct/b"));
    let created = step(
        "create tx to abort",
        RestRequest::new(RestMethod::CreateTx, ""),
    );
    let aborted: u64 = body(&created).parse().unwrap();
    step("abort tx", in_tx(RestMethod::AbortTx, "", Some(aborted)));
    step(
        "check results, aborted",
        in_tx(RestMethod::CheckResults, "", Some(aborted)),
    );
    step(
        "commit tx, aborted",
        in_tx(RestMethod::CommitTx, "", Some(aborted)),
    );
    step(
        "abort tx, aborted",
        in_tx(RestMethod::AbortTx, "", Some(aborted)),
    );

    // Transaction methods without a transaction id.
    for (label, method) in [
        ("add read, no tx id", RestMethod::AddRead),
        ("add write, no tx id", RestMethod::AddWrite),
        ("commit tx, no tx id", RestMethod::CommitTx),
        ("abort tx, no tx id", RestMethod::AbortTx),
        ("check results, no tx id", RestMethod::CheckResults),
    ] {
        step(label, in_tx(method, "acct/a", None));
    }
    out
}

/// A `CreateTx` body with the cluster tag cleared; every other body as is.
fn normalized_body(label: &str, response: &ClientResponse) -> Vec<u8> {
    if !label.starts_with("create tx") {
        return response.value.clone();
    }
    let id: u64 = String::from_utf8(response.value.clone())
        .unwrap()
        .parse()
        .unwrap();
    (id & !CLUSTER_TX_BIT).to_string().into_bytes()
}

#[test]
fn controller_and_one_partition_cluster_answer_every_request_alike() {
    let controller = PesosController::new(ControllerConfig::native_simulator(1)).unwrap();
    controller.register_client(CLIENT);
    let cluster = ControllerCluster::new(ClusterConfig::native_simulator(1, 1)).unwrap();
    cluster.register_client(CLIENT);

    let bare = transcript(
        &|request| controller.handle(CLIENT, ClientRequest::new(request)),
        &|| controller.drain_async(),
    );
    let routed = transcript(
        &|request| cluster.handle(CLIENT, ClientRequest::new(request)),
        &|| cluster.drain_async(),
    );

    assert_eq!(bare.len(), routed.len());
    for ((label, b), (_, r)) in bare.iter().zip(&routed) {
        assert_eq!(b.status, r.status, "{label}: status");
        assert_eq!(
            normalized_body(label, b),
            normalized_body(label, r),
            "{label}: body"
        );
        assert_eq!(b.version, r.version, "{label}: version");
        assert_eq!(b.operation_id, r.operation_id, "{label}: operation id");
    }
    // The script exercised both outcomes, not just errors.
    let ok = bare
        .iter()
        .filter(|(_, r)| r.status == pesos_wire::RestStatus::Ok)
        .count();
    assert!(ok >= 15, "only {ok} requests succeeded");
    assert!(ok < bare.len(), "no error case was exercised");
}
