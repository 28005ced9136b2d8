//! The cluster nodes' naming surface end to end: a 3-node
//! `serve_cluster_hdns` cluster on loopback TCP serves the full
//! `DirContext` through the HDNS provider, every result agrees with what
//! a replica reached by replication serves and with a single-replica
//! `serve_hdns`, and a node cut off from the majority refuses a remote
//! write promptly instead of hanging the caller.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use rndi::core::attrs::{AttrMod, Attribute, Attributes};
use rndi::core::context::{DirContext, SearchControls, SearchScope};
use rndi::core::env::Environment;
use rndi::core::error::{NamingError, Result};
use rndi::core::filter::Filter;
use rndi::core::name::CompositeName;
use rndi::core::value::BoundValue;
use rndi::net::proto::MemberState;
use rndi::net::NetClient;
use rndi::serve::{serve_cluster_hdns, serve_hdns, HdnsCluster};

/// One cluster at a time: two clusters contending for CPU make each
/// other's heartbeats late enough to read as death.
fn exclusive() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Poll `cond` until it holds or `budget` elapses; panics with `what` on
/// timeout.
fn wait_for(budget: Duration, what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + budget;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn boot(group: &str, env: &Environment) -> HdnsCluster {
    let cluster = serve_cluster_hdns(3, group, env).expect("boot");
    wait_for(Duration::from_secs(20), "3-node convergence", || {
        cluster.nodes().iter().all(|node| {
            node.view().is_some_and(|v| v.members.len() == 3)
                && node.members().len() == 3
                && node.members().iter().all(|m| m.state == MemberState::Alive)
                && node.writes_allowed()
        })
    });
    cluster
}

fn connect(endpoint: &str) -> Arc<dyn DirContext> {
    NetClient::connect(endpoint, &Environment::new()).expect("connect")
}

fn name(s: &str) -> CompositeName {
    CompositeName::parse(s).unwrap()
}

/// One write, then one read whose rendered result is compared across
/// deployments.
struct Step {
    write: fn(&dyn DirContext),
    read: fn(&dyn DirContext) -> Result<String>,
}

fn steps() -> Vec<Step> {
    fn attrs_of(ctx: &dyn DirContext) -> Result<String> {
        Ok(format!("{:?}", ctx.get_attributes(&name("dept/a"))?))
    }
    fn bindings_of(ctx: &dyn DirContext) -> Result<String> {
        Ok(format!("{:?}", ctx.list_bindings(&name("dept"))?))
    }
    vec![
        Step {
            write: |ctx| {
                ctx.create_subcontext(&name("dept")).unwrap();
                let linux = Attributes::new().with("os", "linux");
                ctx.bind_with_attrs(
                    &name("dept/a"),
                    BoundValue::str("alpha"),
                    linux.clone().with("cpu", "16"),
                )
                .unwrap();
                ctx.bind_with_attrs(
                    &name("dept/b"),
                    BoundValue::I64(2),
                    Attributes::new().with("os", "irix"),
                )
                .unwrap();
                ctx.bind_with_attrs(&name("top"), BoundValue::str("t"), linux)
                    .unwrap();
            },
            read: attrs_of,
        },
        Step {
            write: |ctx| {
                ctx.modify_attributes(
                    &name("dept/a"),
                    &[
                        AttrMod::Replace(Attribute::single("cpu", "32")),
                        AttrMod::Add(Attribute::single("note", "ok")),
                    ],
                )
                .unwrap();
            },
            read: attrs_of,
        },
        Step {
            write: |_| {},
            read: |ctx| {
                let hits = ctx.search(
                    &CompositeName::empty(),
                    &Filter::parse("(os=linux)").unwrap(),
                    &SearchControls {
                        scope: SearchScope::Subtree,
                        return_values: true,
                        ..Default::default()
                    },
                )?;
                Ok(format!(
                    "{} hits {hits:?} {}",
                    hits.len(),
                    bindings_of(ctx)?
                ))
            },
        },
        Step {
            write: |ctx| ctx.rename(&name("dept/b"), &name("dept/c")).unwrap(),
            read: |ctx| {
                let moved = ctx.lookup(&name("dept/c"))?;
                Ok(format!("{} moved {moved:?}", bindings_of(ctx)?))
            },
        },
        Step {
            write: |ctx| {
                for leaf in ["dept/a", "dept/c"] {
                    ctx.unbind(&name(leaf)).unwrap();
                }
                ctx.destroy_subcontext(&name("dept")).unwrap();
            },
            read: |ctx| {
                let left = ctx.list(&CompositeName::empty())?;
                Ok(format!("{} left {left:?}", left.len()))
            },
        },
    ]
}

#[test]
fn cluster_nodes_serve_the_full_dircontext() {
    let _gate = exclusive();
    let env = Environment::new();
    let cluster = boot("dirctx-e2e", &env);
    let writer = connect(cluster.node(0).endpoint());
    let follower = connect(cluster.node(2).endpoint());

    let mut replicated = Vec::new();
    for (i, step) in steps().iter().enumerate() {
        (step.write)(writer.as_ref());
        let want = (step.read)(writer.as_ref()).unwrap();
        wait_for(
            Duration::from_secs(5),
            &format!("step {i} on node-2"),
            || (step.read)(follower.as_ref()).is_ok_and(|got| got == want),
        );
        replicated.push(want);
    }
    cluster.shutdown();
    assert!(replicated[2].starts_with("2 hits"), "{}", replicated[2]);
    assert!(replicated[3].ends_with("moved I64(2)"), "{}", replicated[3]);
    assert!(replicated[4].starts_with("1 left"), "{}", replicated[4]);

    let realm = rndi::hdns::HdnsRealm::new(
        "dirctx-single",
        1,
        rndi::groupcast::StackConfig::default(),
        None,
        1,
    );
    let server = serve_hdns(realm, 0, "dirctx-single", &env).unwrap();
    let single = connect(&server.local_addr().to_string());
    let alone: Vec<String> = steps()
        .iter()
        .map(|step| {
            (step.write)(single.as_ref());
            (step.read)(single.as_ref()).unwrap()
        })
        .collect();
    server.shutdown();
    assert_eq!(replicated, alone);
}

#[test]
fn minority_node_refuses_a_remote_bind_within_the_write_budget() {
    let _gate = exclusive();
    let mut cluster = boot("dirctx-minority", &Environment::new());
    // Cut the seed off by killing its two peers: every node has gossiped
    // with it directly, so it soon reads both as gone.
    cluster.take(2).kill();
    cluster.take(1).kill();
    wait_for(Duration::from_secs(15), "node-0 loses its quorum", || {
        !cluster.node(0).writes_allowed()
    });

    let minority = connect(cluster.node(0).endpoint());
    let start = Instant::now();
    let err = minority
        .bind(&name("cut-off"), BoundValue::str("x"))
        .unwrap_err();
    let took = start.elapsed();
    match &err {
        NamingError::ServiceFailure { detail } => {
            assert!(detail.contains("writes refused"), "{detail}")
        }
        other => panic!("expected a service failure, got {other:?}"),
    }
    // The served write budget is 250 ms; a refusal needs none of it.
    assert!(took < Duration::from_millis(250), "answered after {took:?}");
    assert!(cluster.node(0).lookup("cut-off").is_none());
    cluster.shutdown();
}
