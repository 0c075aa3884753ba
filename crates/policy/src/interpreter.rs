//! The policy interpreter.
//!
//! Evaluates a [`CompiledPolicy`] against a [`RequestContext`] and an
//! [`ObjectStoreView`]. A permission is granted when at least one of its
//! conjunctions is satisfiable: predicates are evaluated left to right over
//! a flat variable-binding table, with each predicate either *testing* its
//! arguments (all bound) or *binding* unbound variables to the values the
//! system knows (the session key, the current version, a certified fact, a
//! matching log tuple, ...). This is the same compare-or-set semantics
//! described for every predicate in paper Table 1.

use pesos_crypto::Certificate;

use crate::compiler::{CompiledConjunction, CompiledExpr, CompiledPolicy, CompiledPredicate};
use crate::context::{Operation, RequestContext};
use crate::error::PolicyError;
use crate::predicates::Predicate;
use crate::value::{Tuple, Value};

/// How many historical versions `objSays` searches when its version
/// argument is unbound.
const OBJ_SAYS_SEARCH_DEPTH: u64 = 64;

/// The facts the interpreter may look up about stored objects.
pub trait ObjectStoreView {
    /// True if an object exists under `key`.
    fn exists(&self, key: &str) -> bool;
    /// The latest version of `key`, if it exists.
    fn current_version(&self, key: &str) -> Option<u64>;
    /// Size in bytes of `key` at `version`.
    fn object_size(&self, key: &str, version: u64) -> Option<u64>;
    /// Content hash of `key` at `version`.
    fn object_hash(&self, key: &str, version: u64) -> Option<Vec<u8>>;
    /// Hash of the policy associated with `key` at `version`.
    fn policy_hash(&self, key: &str, version: u64) -> Option<Vec<u8>>;
    /// Tuples parsed from the contents of `key` at `version`.
    fn object_tuples(&self, key: &str, version: u64) -> Vec<Tuple>;
}

/// The outcome of a policy check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Whether the operation is permitted.
    pub allowed: bool,
    /// Index of the conjunction that granted access, if any.
    pub matched_conjunction: Option<usize>,
    /// Human-readable reason for a denial.
    pub reason: String,
}

impl Decision {
    fn allow(index: usize) -> Self {
        Decision {
            allowed: true,
            matched_conjunction: Some(index),
            reason: String::new(),
        }
    }

    fn deny(reason: impl Into<String>) -> Self {
        Decision {
            allowed: false,
            matched_conjunction: None,
            reason: reason.into(),
        }
    }
}

type Env = Vec<Option<Value>>;

impl CompiledPolicy {
    /// Evaluates the permission for `operation`.
    ///
    /// Evaluation is fail-closed: conditions that error (e.g. reference an
    /// unbound variable in arithmetic) simply do not grant access.
    pub fn evaluate<V: ObjectStoreView>(
        &self,
        operation: Operation,
        ctx: &RequestContext,
        view: &V,
    ) -> Decision {
        let Some(condition) = self.permissions.get(&operation) else {
            return Decision::deny(format!(
                "policy grants no {} permission",
                operation.as_str()
            ));
        };
        if condition.conjunctions.is_empty() {
            return Decision::deny(format!("policy denies {}", operation.as_str()));
        }

        for (index, conjunction) in condition.conjunctions.iter().enumerate() {
            match self.try_conjunction(conjunction, ctx, view) {
                Ok(true) => return Decision::allow(index),
                Ok(false) | Err(_) => continue,
            }
        }
        Decision::deny(format!("no {} condition was satisfied", operation.as_str()))
    }

    fn initial_env(&self, ctx: &RequestContext) -> Env {
        let mut env: Env = vec![None; self.slot_count()];
        for (name, value) in &ctx.bindings {
            if let Some(slot) = self.variables.iter().position(|v| v == name) {
                // pesos-lint: allow(panic_freedom, "slot is a position in variables, and env has variables.len() entries")
                env[slot] = Some(value.clone());
            }
        }
        env
    }

    fn try_conjunction<V: ObjectStoreView>(
        &self,
        conjunction: &CompiledConjunction,
        ctx: &RequestContext,
        view: &V,
    ) -> Result<bool, PolicyError> {
        let mut env = self.initial_env(ctx);
        for predicate in &conjunction.predicates {
            if !self.eval_predicate(predicate, &mut env, ctx, view)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn eval_predicate<V: ObjectStoreView>(
        &self,
        call: &CompiledPredicate,
        env: &mut Env,
        ctx: &RequestContext,
        view: &V,
    ) -> Result<bool, PolicyError> {
        match call.predicate {
            Predicate::Eq => self.eval_eq(&call.args, env),
            Predicate::Le | Predicate::Lt | Predicate::Ge | Predicate::Gt => {
                self.eval_relational(call.predicate, &call.args, env)
            }
            Predicate::SessionKeyIs => {
                let Some(session) = &ctx.session_key else {
                    return Ok(false);
                };
                // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
                Ok(self.unify(&call.args[0], &Value::PubKey(session.clone()), env)?)
            }
            Predicate::NextVersion => {
                let Some(next) = ctx.next_version else {
                    return Ok(false);
                };
                // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
                Ok(self.unify(&call.args[0], &Value::Int(next as i64), env)?)
            }
            Predicate::ObjId => self.eval_obj_id(&call.args, env, view),
            Predicate::CurrVersion => self.eval_curr_version(&call.args, env, view),
            Predicate::ObjSize => self.eval_obj_fact(&call.args, env, view, FactKind::Size),
            Predicate::ObjHash => {
                self.eval_obj_fact_with_pending(&call.args, env, ctx, view, FactKind::Hash)
            }
            Predicate::ObjPolicy => self.eval_obj_fact(&call.args, env, view, FactKind::Policy),
            Predicate::ObjSays => self.eval_obj_says(&call.args, env, view),
            Predicate::CertificateSays => self.eval_certificate_says(&call.args, env, ctx),
        }
    }

    /// Evaluates an expression to a concrete value, or `Ok(None)` if it is
    /// an unbound variable (usable as a binding target).
    fn eval_expr(&self, expr: &CompiledExpr, env: &Env) -> Result<Option<Value>, PolicyError> {
        match expr {
            CompiledExpr::Literal(v) => Ok(Some(v.clone())),
            // pesos-lint: allow(panic_freedom, "Var slots are below variables.len(): compile interns them densely and from_bytes rejects any other; env has variables.len() entries")
            CompiledExpr::Var(slot) => Ok(env[*slot as usize].clone()),
            CompiledExpr::Add(a, b) => {
                let a = self
                    .eval_expr(a, env)?
                    .and_then(|v| v.as_int())
                    .ok_or_else(|| {
                        PolicyError::EvaluationError(
                            "left operand of + is unbound or non-integer".into(),
                        )
                    })?;
                let b = self
                    .eval_expr(b, env)?
                    .and_then(|v| v.as_int())
                    .ok_or_else(|| {
                        PolicyError::EvaluationError(
                            "right operand of + is unbound or non-integer".into(),
                        )
                    })?;
                Ok(Some(Value::Int(a + b)))
            }
            CompiledExpr::Tuple(name, args) => {
                let mut values = Vec::with_capacity(args.len());
                for arg in args {
                    match self.eval_expr(arg, env)? {
                        Some(v) => values.push(v),
                        None => return Ok(None),
                    }
                }
                Ok(Some(Value::Tuple(Box::new(Tuple::new(
                    name.clone(),
                    values,
                )))))
            }
        }
    }

    /// Unifies an argument expression with a concrete value: binds an
    /// unbound variable, otherwise compares loosely. Tuple expressions unify
    /// element-wise so unbound tuple arguments pick up values.
    fn unify(
        &self,
        expr: &CompiledExpr,
        value: &Value,
        env: &mut Env,
    ) -> Result<bool, PolicyError> {
        match expr {
            CompiledExpr::Var(slot) => {
                let slot = *slot as usize;
                // pesos-lint: allow(panic_freedom, "Var slots are below variables.len(): compile interns them densely and from_bytes rejects any other; env has variables.len() entries")
                match &env[slot] {
                    Some(bound) => Ok(bound.loosely_equals(value)),
                    None => {
                        // pesos-lint: allow(panic_freedom, "Var slots are below variables.len(): compile interns them densely and from_bytes rejects any other; env has variables.len() entries")
                        env[slot] = Some(value.clone());
                        Ok(true)
                    }
                }
            }
            CompiledExpr::Tuple(name, args) => {
                let Value::Tuple(t) = value else {
                    return Ok(false);
                };
                if t.name != *name || t.args.len() != args.len() {
                    return Ok(false);
                }
                // Unify arguments with rollback on failure.
                let snapshot = env.clone();
                for (arg, v) in args.iter().zip(t.args.iter()) {
                    if !self.unify(arg, v, env)? {
                        *env = snapshot;
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            _ => match self.eval_expr(expr, env)? {
                Some(v) => Ok(v.loosely_equals(value)),
                None => Ok(false),
            },
        }
    }

    fn eval_eq(&self, args: &[CompiledExpr], env: &mut Env) -> Result<bool, PolicyError> {
        // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
        let a = self.eval_expr(&args[0], env)?;
        // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
        let b = self.eval_expr(&args[1], env)?;
        match (a, b) {
            (Some(a), Some(b)) => Ok(a.loosely_equals(&b)),
            // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
            (Some(a), None) => self.unify(&args[1], &a, env),
            // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
            (None, Some(b)) => self.unify(&args[0], &b, env),
            (None, None) => Ok(false),
        }
    }

    fn eval_relational(
        &self,
        predicate: Predicate,
        args: &[CompiledExpr],
        env: &Env,
    ) -> Result<bool, PolicyError> {
        // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
        let a = self.eval_expr(&args[0], env)?.and_then(|v| v.as_int());
        // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
        let b = self.eval_expr(&args[1], env)?.and_then(|v| v.as_int());
        let (Some(a), Some(b)) = (a, b) else {
            return Ok(false);
        };
        Ok(match predicate {
            Predicate::Le => a <= b,
            Predicate::Lt => a < b,
            Predicate::Ge => a >= b,
            Predicate::Gt => a > b,
            _ => unreachable!("relational dispatch"),
        })
    }

    fn eval_obj_id<V: ObjectStoreView>(
        &self,
        args: &[CompiledExpr],
        env: &mut Env,
        view: &V,
    ) -> Result<bool, PolicyError> {
        // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
        let Some(handle) = self.eval_expr(&args[0], env)? else {
            return Ok(false);
        };
        let Some(key) = handle.as_str().map(str::to_string) else {
            return Ok(false);
        };
        let id_value = if view.exists(&key) {
            Value::Str(key)
        } else {
            Value::Null
        };
        // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
        self.unify(&args[1], &id_value, env)
    }

    fn eval_curr_version<V: ObjectStoreView>(
        &self,
        args: &[CompiledExpr],
        env: &mut Env,
        view: &V,
    ) -> Result<bool, PolicyError> {
        // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
        let Some(key) = self.resolve_key(&args[0], env)? else {
            return Ok(false);
        };
        let Some(version) = view.current_version(&key) else {
            return Ok(false);
        };
        // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
        self.unify(&args[1], &Value::Int(version as i64), env)
    }

    fn resolve_key(&self, expr: &CompiledExpr, env: &Env) -> Result<Option<String>, PolicyError> {
        Ok(self
            .eval_expr(expr, env)?
            .and_then(|v| v.as_str().map(str::to_string)))
    }

    fn resolve_version<V: ObjectStoreView>(
        &self,
        expr: &CompiledExpr,
        env: &mut Env,
        view: &V,
        key: &str,
    ) -> Result<Option<u64>, PolicyError> {
        match self.eval_expr(expr, env)? {
            Some(v) => Ok(v.as_int().map(|i| i as u64)),
            None => {
                // Unbound version defaults to the current version and binds.
                match view.current_version(key) {
                    Some(current) => {
                        self.unify(expr, &Value::Int(current as i64), env)?;
                        Ok(Some(current))
                    }
                    None => Ok(None),
                }
            }
        }
    }

    fn eval_obj_fact<V: ObjectStoreView>(
        &self,
        args: &[CompiledExpr],
        env: &mut Env,
        view: &V,
        kind: FactKind,
    ) -> Result<bool, PolicyError> {
        // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
        let Some(key) = self.resolve_key(&args[0], env)? else {
            return Ok(false);
        };
        // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
        let Some(version) = self.resolve_version(&args[1], env, view, &key)? else {
            return Ok(false);
        };
        let fact = match kind {
            FactKind::Size => view
                .object_size(&key, version)
                .map(|s| Value::Int(s as i64)),
            FactKind::Hash => view.object_hash(&key, version).map(Value::Hash),
            FactKind::Policy => view.policy_hash(&key, version).map(Value::Hash),
        };
        match fact {
            // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
            Some(value) => self.unify(&args[2], &value, env),
            None => Ok(false),
        }
    }

    /// Like [`Self::eval_obj_fact`] but, for `objHash`, a version exactly one
    /// past the current version refers to the *incoming* value of the update
    /// being checked (as the MAL policy's `objHash(o, v+1, nH)` requires).
    fn eval_obj_fact_with_pending<V: ObjectStoreView>(
        &self,
        args: &[CompiledExpr],
        env: &mut Env,
        ctx: &RequestContext,
        view: &V,
        kind: FactKind,
    ) -> Result<bool, PolicyError> {
        // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
        let Some(key) = self.resolve_key(&args[0], env)? else {
            return Ok(false);
        };
        // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
        let Some(version) = self.resolve_version(&args[1], env, view, &key)? else {
            return Ok(false);
        };
        let current = view.current_version(&key);
        let is_pending = match current {
            Some(c) => version == c + 1,
            None => version == 0 && !view.exists(&key),
        };
        if is_pending {
            if let Some(hash) = &ctx.new_object_hash {
                // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
                return self.unify(&args[2], &Value::Hash(hash.clone()), env);
            }
            return Ok(false);
        }
        self.eval_obj_fact_with_version(args, env, view, kind, &key, version)
    }

    fn eval_obj_fact_with_version<V: ObjectStoreView>(
        &self,
        args: &[CompiledExpr],
        env: &mut Env,
        view: &V,
        kind: FactKind,
        key: &str,
        version: u64,
    ) -> Result<bool, PolicyError> {
        let fact = match kind {
            FactKind::Size => view.object_size(key, version).map(|s| Value::Int(s as i64)),
            FactKind::Hash => view.object_hash(key, version).map(Value::Hash),
            FactKind::Policy => view.policy_hash(key, version).map(Value::Hash),
        };
        match fact {
            // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
            Some(value) => self.unify(&args[2], &value, env),
            None => Ok(false),
        }
    }

    fn eval_obj_says<V: ObjectStoreView>(
        &self,
        args: &[CompiledExpr],
        env: &mut Env,
        view: &V,
    ) -> Result<bool, PolicyError> {
        // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
        let Some(key) = self.resolve_key(&args[0], env)? else {
            return Ok(false);
        };
        // If the version argument is bound, check only that version;
        // otherwise search backwards from the latest version.
        // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
        let bound_version = self.eval_expr(&args[1], env)?.and_then(|v| v.as_int());
        let versions: Vec<u64> = match bound_version {
            Some(v) if v >= 0 => vec![v as u64],
            Some(_) => return Ok(false),
            None => {
                let Some(latest) = view.current_version(&key) else {
                    return Ok(false);
                };
                let lowest = latest.saturating_sub(OBJ_SAYS_SEARCH_DEPTH);
                (lowest..=latest).rev().collect()
            }
        };

        for version in versions {
            for tuple in view.object_tuples(&key, version) {
                let snapshot = env.clone();
                // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
                if self.unify(&args[2], &Value::Tuple(Box::new(tuple)), env)? {
                    // Bind the version argument if it was unbound.
                    // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
                    if self.unify(&args[1], &Value::Int(version as i64), env)? {
                        return Ok(true);
                    }
                }
                *env = snapshot;
            }
        }
        Ok(false)
    }

    fn eval_certificate_says(
        &self,
        args: &[CompiledExpr],
        env: &mut Env,
        ctx: &RequestContext,
    ) -> Result<bool, PolicyError> {
        let (authority_expr, freshness_expr, tuple_expr) = match args.len() {
            // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
            2 => (&args[0], None, &args[1]),
            // pesos-lint: allow(panic_freedom, "predicate arity is enforced by check_arity at compile time")
            3 => (&args[0], Some(&args[1]), &args[2]),
            _ => unreachable!("arity checked at compile time"),
        };

        for cert in &ctx.certificates {
            if cert.verify_signature().is_err() {
                continue;
            }
            if !self.certificate_fresh(cert, freshness_expr, ctx, env)? {
                continue;
            }
            let issuer_hex = pesos_crypto::hex_encode(&cert.issuer_key.to_bytes());
            let snapshot = env.clone();
            if !self.unify(authority_expr, &Value::PubKey(issuer_hex), env)? {
                *env = snapshot;
                continue;
            }
            for claim in &cert.claims {
                let tuple = Tuple::new(
                    claim.name.clone(),
                    claim.args.iter().map(|a| Value::Str(a.clone())).collect(),
                );
                let claim_snapshot = env.clone();
                if self.unify(tuple_expr, &Value::Tuple(Box::new(tuple)), env)? {
                    return Ok(true);
                }
                *env = claim_snapshot;
            }
            *env = snapshot;
        }
        Ok(false)
    }

    fn certificate_fresh(
        &self,
        cert: &Certificate,
        freshness_expr: Option<&CompiledExpr>,
        ctx: &RequestContext,
        env: &Env,
    ) -> Result<bool, PolicyError> {
        // Validity window always applies.
        if !cert.valid_at(ctx.now) {
            return Ok(false);
        }
        let Some(expr) = freshness_expr else {
            return Ok(true);
        };
        let Some(max_age) = self.eval_expr(expr, env)?.and_then(|v| v.as_int()) else {
            return Ok(false);
        };
        // A certificate is fresh if it embeds the nonce Pesos issued, or if
        // it was issued within the allowed age.
        if let (Some(nonce), Some(cert_nonce)) = (&ctx.freshness_nonce, &cert.nonce) {
            if nonce == cert_nonce {
                return Ok(true);
            }
        }
        Ok(ctx.now.saturating_sub(cert.not_before) <= max_age as u64)
    }
}

#[derive(Clone, Copy)]
enum FactKind {
    Size,
    Hash,
    Policy,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;
    use crate::context::{ObjectFacts, StaticObjectView};
    use crate::parser::{LOG_VAR, THIS_VAR};
    use pesos_crypto::{CertificateBuilder, KeyPair};

    fn acl_policy() -> CompiledPolicy {
        compile(
            "read :- sessionKeyIs(\"alice\") or sessionKeyIs(\"bob\")\n\
             update :- sessionKeyIs(\"alice\")\n\
             delete :- sessionKeyIs(\"admin\")",
        )
        .unwrap()
    }

    #[test]
    fn content_server_acl() {
        let p = acl_policy();
        let view = StaticObjectView::new();

        let read_bob = RequestContext::new(Operation::Read).with_session_key("bob");
        assert!(p.evaluate(Operation::Read, &read_bob, &view).allowed);

        let update_bob = RequestContext::new(Operation::Update).with_session_key("bob");
        let d = p.evaluate(Operation::Update, &update_bob, &view);
        assert!(!d.allowed);
        assert!(!d.reason.is_empty());

        let update_alice = RequestContext::new(Operation::Update).with_session_key("alice");
        assert!(p.evaluate(Operation::Update, &update_alice, &view).allowed);

        let delete_admin = RequestContext::new(Operation::Delete).with_session_key("admin");
        assert!(p.evaluate(Operation::Delete, &delete_admin, &view).allowed);

        // No session key at all: denied.
        let anon = RequestContext::new(Operation::Read);
        assert!(!p.evaluate(Operation::Read, &anon, &view).allowed);
    }

    #[test]
    fn missing_permission_denies() {
        let p = compile("read :- sessionKeyIs(\"alice\")").unwrap();
        let view = StaticObjectView::new();
        let ctx = RequestContext::new(Operation::Delete).with_session_key("alice");
        assert!(!p.evaluate(Operation::Delete, &ctx, &view).allowed);
    }

    #[test]
    fn session_key_binding_variable() {
        // A policy with an unbound session variable grants access to any
        // authenticated client and binds the variable.
        let p = compile("read :- sessionKeyIs(U)").unwrap();
        let view = StaticObjectView::new();
        let ctx = RequestContext::new(Operation::Read).with_session_key("carol");
        assert!(p.evaluate(Operation::Read, &ctx, &view).allowed);
        let anon = RequestContext::new(Operation::Read);
        assert!(!p.evaluate(Operation::Read, &anon, &view).allowed);
    }

    fn versioned_policy() -> CompiledPolicy {
        compile(
            "update :- ( objId(this, O) and currVersion(O, CV) and nextVersion(CV + 1) ) \
             or ( objId(this, NULL) and nextVersion(0) )\n\
             read :- sessionKeyIs(U)",
        )
        .unwrap()
    }

    fn view_with_object(key: &str, version: u64) -> StaticObjectView {
        let mut view = StaticObjectView::new();
        view.insert(
            key,
            version,
            ObjectFacts {
                size: 10,
                hash: vec![1; 32],
                policy_hash: vec![2; 32],
                tuples: Vec::new(),
            },
        );
        view
    }

    #[test]
    fn versioned_store_policy_enforced() {
        let p = versioned_policy();
        let view = view_with_object("obj-1", 4);

        let this = Value::Str("obj-1".to_string());

        // Correct next version accepted.
        let ok = RequestContext::new(Operation::Update)
            .with_next_version(5)
            .bind(THIS_VAR, this.clone());
        assert!(p.evaluate(Operation::Update, &ok, &view).allowed);

        // Wrong next version rejected.
        for bad in [4u64, 6, 0] {
            let ctx = RequestContext::new(Operation::Update)
                .with_next_version(bad)
                .bind(THIS_VAR, this.clone());
            assert!(
                !p.evaluate(Operation::Update, &ctx, &view).allowed,
                "v={bad}"
            );
        }

        // Creation of a new object starts at version 0.
        let empty = StaticObjectView::new();
        let create = RequestContext::new(Operation::Update)
            .with_next_version(0)
            .bind(THIS_VAR, Value::Str("new-obj".into()));
        assert!(p.evaluate(Operation::Update, &create, &empty).allowed);
        let create_bad = RequestContext::new(Operation::Update)
            .with_next_version(3)
            .bind(THIS_VAR, Value::Str("new-obj".into()));
        assert!(!p.evaluate(Operation::Update, &create_bad, &empty).allowed);
    }

    #[test]
    fn obj_size_and_policy_hash_predicates() {
        let p = compile(
            "read :- objId(THIS, O) and objSize(O, V, S) and le(S, 100) and objPolicy(O, V, PH)",
        )
        .unwrap();
        let view = view_with_object("obj", 2);
        let ctx = RequestContext::new(Operation::Read).bind(THIS_VAR, Value::Str("obj".into()));
        assert!(p.evaluate(Operation::Read, &ctx, &view).allowed);

        // A size bound that fails.
        let p2 = compile("read :- objId(THIS, O) and objSize(O, V, S) and le(S, 5)").unwrap();
        assert!(!p2.evaluate(Operation::Read, &ctx, &view).allowed);
    }

    #[test]
    fn mandatory_access_logging_policy() {
        let p = compile(
            "read :- objId(THIS, O) and objId(LOG, L) and currVersion(O, V) and \
                     sessionKeyIs(U) and objSays(L, LV, 'read'(O, V, U))\n\
             update :- objId(THIS, O) and objId(LOG, L) and sessionKeyIs(U) and \
                     currVersion(O, V) and nextVersion(V + 1) and objHash(O, V, CH) and \
                     objHash(O, V + 1, NH) and objSays(L, LV, 'write'(O, V, CH, NH, U))",
        )
        .unwrap();

        // The protected object at version 2 with a known hash.
        let current_hash = pesos_crypto::sha256(b"current contents").to_vec();
        let new_contents = b"new contents".to_vec();
        let new_hash = pesos_crypto::sha256(&new_contents).to_vec();

        let mut view = StaticObjectView::new();
        view.insert(
            "doc",
            2,
            ObjectFacts {
                size: 16,
                hash: current_hash.clone(),
                policy_hash: vec![],
                tuples: Vec::new(),
            },
        );
        // The log object: declares the intended read and write.
        let log_contents = format!(
            "read(\"doc\",2,\"alice\")\nwrite(\"doc\",2,\"{}\",\"{}\",\"alice\")",
            pesos_crypto::hex_encode(&current_hash),
            pesos_crypto::hex_encode(&new_hash),
        );
        view.insert_contents("doc.log", 5, log_contents.as_bytes());

        let base = || {
            RequestContext::new(Operation::Read)
                .with_session_key("alice")
                .bind(THIS_VAR, Value::Str("doc".into()))
                .bind(LOG_VAR, Value::Str("doc.log".into()))
        };

        // Read with a matching log entry is allowed.
        assert!(p.evaluate(Operation::Read, &base(), &view).allowed);

        // Read by a client without a log entry is denied.
        let bob = RequestContext::new(Operation::Read)
            .with_session_key("bob")
            .bind(THIS_VAR, Value::Str("doc".into()))
            .bind(LOG_VAR, Value::Str("doc.log".into()));
        assert!(!p.evaluate(Operation::Read, &bob, &view).allowed);

        // Update with the logged intent (correct hashes and version) allowed.
        let update = RequestContext::new(Operation::Update)
            .with_session_key("alice")
            .with_next_version(3)
            .with_new_object_hash(new_hash.clone())
            .bind(THIS_VAR, Value::Str("doc".into()))
            .bind(LOG_VAR, Value::Str("doc.log".into()));
        assert!(p.evaluate(Operation::Update, &update, &view).allowed);

        // Update whose incoming contents do not match the logged hash denied.
        let tampered = RequestContext::new(Operation::Update)
            .with_session_key("alice")
            .with_next_version(3)
            .with_new_object_hash(pesos_crypto::sha256(b"something else").to_vec())
            .bind(THIS_VAR, Value::Str("doc".into()))
            .bind(LOG_VAR, Value::Str("doc.log".into()));
        assert!(!p.evaluate(Operation::Update, &tampered, &view).allowed);
    }

    #[test]
    fn time_based_policy_with_certificate_chain() {
        let ca = KeyPair::from_seed(b"time-ca");
        let ts = KeyPair::from_seed(b"time-service");
        let ca_hex = pesos_crypto::hex_encode(&ca.public().to_bytes());

        let policy_src = format!(
            "update :- certificateSays(\"{ca_hex}\", 'ts'(TSKEY)) and \
             certificateSays(TSKEY, 'time'(T)) and ge(T, 1650000000)\n\
             read :- sessionKeyIs(U)"
        );
        let p = compile(&policy_src).unwrap();
        let view = StaticObjectView::new();

        let ts_hex = pesos_crypto::hex_encode(&ts.public().to_bytes());
        let endorsement = CertificateBuilder::new("svc:time", ts.public())
            .claim("ts", vec![ts_hex.clone()])
            .issue("ca", &ca);
        let after = CertificateBuilder::new("stmt:time", ts.public())
            .claim("time", vec!["1650000100".to_string()])
            .issue("svc:time", &ts);
        let before = CertificateBuilder::new("stmt:time", ts.public())
            .claim("time", vec!["1640000000".to_string()])
            .issue("svc:time", &ts);

        // Time after the release date: allowed.
        let ok = RequestContext::new(Operation::Update)
            .with_now(100)
            .with_certificate(endorsement.clone())
            .with_certificate(after);
        assert!(p.evaluate(Operation::Update, &ok, &view).allowed);

        // Time before the release date: denied.
        let early = RequestContext::new(Operation::Update)
            .with_now(100)
            .with_certificate(endorsement.clone())
            .with_certificate(before);
        assert!(!p.evaluate(Operation::Update, &early, &view).allowed);

        // Missing the CA endorsement: denied even with a time statement.
        let rogue_ts = KeyPair::from_seed(b"rogue");
        let rogue_time = CertificateBuilder::new("stmt:time", rogue_ts.public())
            .claim("time", vec!["1650000100".to_string()])
            .issue("rogue", &rogue_ts);
        let no_chain = RequestContext::new(Operation::Update)
            .with_now(100)
            .with_certificate(rogue_time);
        assert!(!p.evaluate(Operation::Update, &no_chain, &view).allowed);
    }

    #[test]
    fn certificate_freshness_bound() {
        let ca = KeyPair::from_seed(b"fresh-ca");
        let ca_hex = pesos_crypto::hex_encode(&ca.public().to_bytes());
        let p = compile(&format!(
            "read :- certificateSays(\"{ca_hex}\", 60, 'status'(\"ok\"))"
        ))
        .unwrap();
        let view = StaticObjectView::new();

        let cert = CertificateBuilder::new("stmt", ca.public())
            .claim("status", vec!["ok".into()])
            .validity(1000, 10_000)
            .issue("ca", &ca);

        // Within the freshness window.
        let fresh = RequestContext::new(Operation::Read)
            .with_now(1030)
            .with_certificate(cert.clone());
        assert!(p.evaluate(Operation::Read, &fresh, &view).allowed);

        // Too old.
        let stale = RequestContext::new(Operation::Read)
            .with_now(2000)
            .with_certificate(cert.clone());
        assert!(!p.evaluate(Operation::Read, &stale, &view).allowed);

        // Stale by age but carrying the nonce Pesos issued: accepted.
        let nonce_cert = CertificateBuilder::new("stmt", ca.public())
            .claim("status", vec!["ok".into()])
            .validity(1000, 10_000)
            .nonce(vec![7, 7, 7])
            .issue("ca", &ca);
        let nonced = RequestContext::new(Operation::Read)
            .with_now(2000)
            .with_freshness_nonce(vec![7, 7, 7])
            .with_certificate(nonce_cert);
        assert!(p.evaluate(Operation::Read, &nonced, &view).allowed);
    }

    #[test]
    fn tampered_certificate_rejected() {
        let ca = KeyPair::from_seed(b"ca2");
        let ca_hex = pesos_crypto::hex_encode(&ca.public().to_bytes());
        let p = compile(&format!(
            "read :- certificateSays(\"{ca_hex}\", 'role'(\"admin\"))"
        ))
        .unwrap();
        let view = StaticObjectView::new();
        let mut cert = CertificateBuilder::new("stmt", ca.public())
            .claim("role", vec!["user".into()])
            .issue("ca", &ca);
        // Attacker upgrades the claim without re-signing.
        cert.claims[0].args[0] = "admin".into();
        let ctx = RequestContext::new(Operation::Read).with_certificate(cert);
        assert!(!p.evaluate(Operation::Read, &ctx, &view).allowed);
    }

    #[test]
    fn relational_predicates() {
        let view = StaticObjectView::new();
        let cases = [
            ("read :- eq(3, 3)", true),
            ("read :- eq(3, 4)", false),
            ("read :- eq(\"a\", \"a\")", true),
            (
                "read :- le(3, 3) and lt(3, 4) and ge(4, 4) and gt(5, 4)",
                true,
            ),
            ("read :- lt(4, 3)", false),
            ("read :- eq(X, 7) and eq(X, 7)", true),
            ("read :- eq(X, 7) and eq(X, 8)", false),
            ("read :- gt(X, 1)", false), // Unbound in ordering: fails closed.
        ];
        for (src, expected) in cases {
            let p = compile(src).unwrap();
            let ctx = RequestContext::new(Operation::Read);
            assert_eq!(
                p.evaluate(Operation::Read, &ctx, &view).allowed,
                expected,
                "{src}"
            );
        }
    }

    #[test]
    fn disjunction_falls_through_to_later_conjunctions() {
        let p = compile("read :- eq(1, 2) or eq(2, 2) or eq(3, 4)").unwrap();
        let view = StaticObjectView::new();
        let d = p.evaluate(
            Operation::Read,
            &RequestContext::new(Operation::Read),
            &view,
        );
        assert!(d.allowed);
        assert_eq!(d.matched_conjunction, Some(1));
    }
}
