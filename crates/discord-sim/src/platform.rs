//! The platform API surface.
//!
//! [`Platform`] is a cheaply-clonable handle (all state behind one lock)
//! exposing the operations the rest of the workspace uses: account and guild
//! management, OAuth bot installation, messaging, moderation, and the
//! gateway event feed.
//!
//! **Enforcement model** (the crux of the paper): every call takes an
//! `actor` and is checked against *that actor's* effective permissions and
//! the role hierarchy. The platform never checks whether the human who
//! *asked a bot* to do something was allowed to — "permissions checks are
//! not enforced by the platform. Instead, the developer of a chatbot is
//! responsible for checking if the user invoking the chatbot has the
//! permission" (§4.2). That check, when it exists, lives in `botsdk`.

use crate::audit::{AuditAction, AuditEntry, AuditLog};
use crate::channel::{Channel, ChannelId, ChannelKind};
use crate::enforcer::RuntimePolicy;
use crate::error::PlatformError;
use crate::gateway::GatewayEvent;
use crate::guild::{Guild, GuildId, GuildVisibility, Member};
use crate::hierarchy;
use crate::message::{Attachment, Message, MessageId};
use crate::oauth::InviteUrl;
use crate::permissions::Permissions;
use crate::resolve;
use crate::role::{Role, RoleId};
use crate::slash::SlashCommand;
use crate::snowflake::{Snowflake, SnowflakeGen};
use crate::user::{User, UserId, UserKind, UNVERIFIED_GUILD_LIMIT};
use crate::PlatformResult;
use netsim::clock::VirtualClock;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// An emoji used in reactions. External (cross-guild custom) emojis need
/// the `USE_EXTERNAL_EMOJIS` permission — one of the Figure 3 set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Emoji {
    /// A plain unicode emoji, usable by anyone who can react.
    Unicode(String),
    /// A custom emoji from another guild.
    External(String),
}

/// An incoming webhook: a channel-scoped posting credential. Anyone who
/// holds the token can post — no account, no permission check. This is the
/// surface the paper's citation \[54\] ("Spidey Bot" malware stealing
/// webhook credentials) abuses.
#[derive(Debug, Clone)]
pub struct Webhook {
    /// Webhook ID.
    pub id: Snowflake,
    /// The channel it posts into.
    pub channel: ChannelId,
    /// Display name used for its messages.
    pub name: String,
    /// The secret token. Possession is authorization.
    pub token: String,
    /// The pseudo-account its messages are attributed to.
    pub user: UserId,
}

/// A registered chatbot application.
#[derive(Debug, Clone)]
pub struct BotApplication {
    /// OAuth client ID (raw snowflake value).
    pub client_id: u64,
    /// The bot user account this application controls.
    pub bot_user: UserId,
    /// Display name.
    pub name: String,
    /// Whether platform staff whitelisted this app for gated scopes.
    pub whitelisted: bool,
}

struct Inner {
    clock: VirtualClock,
    ids: SnowflakeGen,
    users: BTreeMap<UserId, User>,
    guilds: BTreeMap<GuildId, Guild>,
    apps: BTreeMap<u64, BotApplication>,
    messages: BTreeMap<ChannelId, Vec<Message>>,
    channel_guild: BTreeMap<ChannelId, GuildId>,
    gateways: BTreeMap<UserId, Sender<GatewayEvent>>,
    audit: AuditLog,
    policy: RuntimePolicy,
    least_privilege: bool,
    bot_commands: BTreeMap<UserId, Vec<String>>,
    reactions: BTreeMap<MessageId, Vec<(UserId, Emoji)>>,
    pins: BTreeMap<ChannelId, Vec<MessageId>>,
    webhooks: BTreeMap<Snowflake, Webhook>,
    slash_commands: BTreeMap<u64, Vec<SlashCommand>>,
    voice_states: BTreeMap<ChannelId, Vec<UserId>>,
    voice_muted: BTreeMap<GuildId, Vec<UserId>>,
}

/// Shared handle to the simulated messaging platform.
#[derive(Clone)]
pub struct Platform {
    inner: Arc<Mutex<Inner>>,
}

impl Platform {
    /// A fresh platform on the given clock.
    pub fn new(clock: VirtualClock) -> Platform {
        Platform {
            inner: Arc::new(Mutex::new(Inner {
                ids: SnowflakeGen::new(clock.clone(), 3),
                clock,
                users: BTreeMap::new(),
                guilds: BTreeMap::new(),
                apps: BTreeMap::new(),
                messages: BTreeMap::new(),
                channel_guild: BTreeMap::new(),
                gateways: BTreeMap::new(),
                audit: AuditLog::new(),
                policy: RuntimePolicy::default(),
                least_privilege: false,
                bot_commands: BTreeMap::new(),
                reactions: BTreeMap::new(),
                pins: BTreeMap::new(),
                webhooks: BTreeMap::new(),
                slash_commands: BTreeMap::new(),
                voice_states: BTreeMap::new(),
                voice_muted: BTreeMap::new(),
            })),
        }
    }

    // ---- accounts ----------------------------------------------------

    /// Register a normal user account.
    pub fn register_user(&self, name: &str, email: &str) -> UserId {
        let mut inner = self.inner.lock();
        let id = UserId(inner.ids.next());
        inner.users.insert(
            id,
            User {
                id,
                name: name.to_string(),
                kind: UserKind::Normal,
                email: email.to_string(),
                mobile_verified: false,
                guilds_joined: 0,
            },
        );
        id
    }

    /// Complete mobile verification for an account (the manual step the
    /// paper had to perform for its honeypot personas).
    pub fn verify_mobile(&self, user: UserId) -> PlatformResult<()> {
        let mut inner = self.inner.lock();
        let u = inner
            .users
            .get_mut(&user)
            .ok_or_else(|| PlatformError::NotFound {
                what: user.to_string(),
            })?;
        u.mobile_verified = true;
        Ok(())
    }

    /// Register a chatbot application owned by `owner`. Returns the app.
    pub fn register_bot_application(
        &self,
        owner: UserId,
        name: &str,
    ) -> PlatformResult<BotApplication> {
        let mut inner = self.inner.lock();
        if !inner.users.contains_key(&owner) {
            return Err(PlatformError::NotFound {
                what: owner.to_string(),
            });
        }
        let bot_id = UserId(inner.ids.next());
        inner.users.insert(
            bot_id,
            User {
                id: bot_id,
                name: format!("{name}#bot"),
                kind: UserKind::Bot { owner },
                email: String::new(),
                mobile_verified: true,
                guilds_joined: 0,
            },
        );
        let client_id = bot_id.0.raw();
        let app = BotApplication {
            client_id,
            bot_user: bot_id,
            name: name.to_string(),
            whitelisted: false,
        };
        inner.apps.insert(client_id, app.clone());
        Ok(app)
    }

    /// Staff action: whitelist an application for gated scopes.
    pub fn whitelist_application(&self, client_id: u64) -> PlatformResult<()> {
        let mut inner = self.inner.lock();
        let app = inner
            .apps
            .get_mut(&client_id)
            .ok_or_else(|| PlatformError::NotFound {
                what: format!("app {client_id}"),
            })?;
        app.whitelisted = true;
        Ok(())
    }

    /// Account lookup.
    pub fn user(&self, id: UserId) -> PlatformResult<User> {
        self.inner
            .lock()
            .users
            .get(&id)
            .cloned()
            .ok_or_else(|| PlatformError::NotFound {
                what: id.to_string(),
            })
    }

    /// Application lookup by client ID.
    pub fn application(&self, client_id: u64) -> PlatformResult<BotApplication> {
        self.inner
            .lock()
            .apps
            .get(&client_id)
            .cloned()
            .ok_or_else(|| PlatformError::NotFound {
                what: format!("app {client_id}"),
            })
    }

    // ---- guilds --------------------------------------------------------

    /// Create a guild; the creator becomes owner and a `#general` text
    /// channel is provisioned.
    pub fn create_guild(
        &self,
        owner: UserId,
        name: &str,
        visibility: GuildVisibility,
    ) -> PlatformResult<GuildId> {
        let mut inner = self.inner.lock();
        if !inner.users.contains_key(&owner) {
            return Err(PlatformError::NotFound {
                what: owner.to_string(),
            });
        }
        let gid = GuildId(inner.ids.next());
        let everyone = RoleId(inner.ids.next());
        let mut guild = Guild::new(gid, name, owner, everyone, visibility);
        let cid = ChannelId(inner.ids.next());
        guild.channels.insert(cid, Channel::text(cid, "general"));
        inner.channel_guild.insert(cid, gid);
        inner.guilds.insert(gid, guild);
        if let Some(u) = inner.users.get_mut(&owner) {
            u.guilds_joined += 1;
        }
        Ok(gid)
    }

    /// Read a guild snapshot (cloned).
    pub fn guild(&self, id: GuildId) -> PlatformResult<Guild> {
        self.inner
            .lock()
            .guilds
            .get(&id)
            .cloned()
            .ok_or_else(|| PlatformError::NotFound {
                what: id.to_string(),
            })
    }

    /// The guild that owns a channel.
    pub fn guild_of_channel(&self, channel: ChannelId) -> PlatformResult<GuildId> {
        self.inner
            .lock()
            .channel_guild
            .get(&channel)
            .copied()
            .ok_or_else(|| PlatformError::NotFound {
                what: channel.to_string(),
            })
    }

    /// The first text channel of a guild (convenience; every guild has one).
    pub fn default_channel(&self, guild: GuildId) -> PlatformResult<ChannelId> {
        let inner = self.inner.lock();
        let g = inner
            .guilds
            .get(&guild)
            .ok_or_else(|| PlatformError::NotFound {
                what: guild.to_string(),
            })?;
        let first = g.text_channels().next().map(|c| c.id);
        first.ok_or_else(|| PlatformError::NotFound {
            what: "text channel".into(),
        })
    }

    /// Create a channel. Requires `MANAGE_CHANNELS`.
    pub fn create_channel(
        &self,
        actor: UserId,
        guild: GuildId,
        name: &str,
        kind: ChannelKind,
    ) -> PlatformResult<ChannelId> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let g = inner
            .guilds
            .get_mut(&guild)
            .ok_or_else(|| PlatformError::NotFound {
                what: guild.to_string(),
            })?;
        require(g, actor, Permissions::MANAGE_CHANNELS, "create a channel")?;
        let cid = ChannelId(inner.ids.next());
        let channel = match kind {
            ChannelKind::Text => Channel::text(cid, name),
            ChannelKind::Voice => Channel::voice(cid, name),
        };
        g.channels.insert(cid, channel);
        inner.channel_guild.insert(cid, guild);
        inner.audit.record(AuditEntry {
            at: inner.clock.now(),
            guild,
            actor,
            action: AuditAction::ChannelCreated {
                name: name.to_string(),
            },
        });
        dispatch(
            inner,
            guild,
            GatewayEvent::ChannelCreate {
                guild,
                channel: cid,
            },
        );
        Ok(cid)
    }

    /// Create an invite code. Requires `CREATE_INSTANT_INVITE`.
    pub fn create_invite(&self, actor: UserId, guild: GuildId) -> PlatformResult<String> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let g = inner
            .guilds
            .get_mut(&guild)
            .ok_or_else(|| PlatformError::NotFound {
                what: guild.to_string(),
            })?;
        require(
            g,
            actor,
            Permissions::CREATE_INSTANT_INVITE,
            "create an invite",
        )?;
        let code = format!("inv-{}", inner.ids.next());
        g.invites.push(code.clone());
        Ok(code)
    }

    /// Join a guild as a *normal* user. Bots join via [`Self::install_bot`].
    ///
    /// Private guilds require a valid invite code. New accounts that join
    /// too many guilds without mobile verification get flagged (§4.2).
    pub fn join_guild(
        &self,
        user: UserId,
        guild: GuildId,
        invite: Option<&str>,
    ) -> PlatformResult<()> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let u = inner
            .users
            .get_mut(&user)
            .ok_or_else(|| PlatformError::NotFound {
                what: user.to_string(),
            })?;
        if u.is_bot() {
            return Err(PlatformError::Invalid {
                reason: "bot accounts are added through the OAuth install flow".into(),
            });
        }
        if !u.mobile_verified && u.guilds_joined >= UNVERIFIED_GUILD_LIMIT {
            return Err(PlatformError::VerificationRequired);
        }
        let g = inner
            .guilds
            .get_mut(&guild)
            .ok_or_else(|| PlatformError::NotFound {
                what: guild.to_string(),
            })?;
        if g.visibility == GuildVisibility::Private {
            match invite {
                Some(code) if g.has_invite(code) => {}
                _ => return Err(PlatformError::InviteRequired),
            }
        }
        if g.members.contains_key(&user) {
            return Ok(());
        }
        g.members.insert(
            user,
            Member {
                user,
                roles: Vec::new(),
                nickname: None,
            },
        );
        u.guilds_joined += 1;
        dispatch(inner, guild, GatewayEvent::GuildMemberAdd { guild, user });
        Ok(())
    }

    // ---- OAuth install -------------------------------------------------

    /// Install a chatbot into a guild from its invite URL.
    ///
    /// Checks, in order: the install flow's captcha (§4.2: "To add a chatbot
    /// to the guild, we need to solve a Google reCAPTCHA"); the installer's
    /// `MANAGE_GUILD` permission (§4.1); scope gating (whitelist/testing);
    /// then creates the bot member with a managed role carrying the
    /// requested permissions and emits `GuildCreate` to the bot's gateway.
    pub fn install_bot(
        &self,
        installer: UserId,
        guild: GuildId,
        invite: &InviteUrl,
        captcha_solved: bool,
    ) -> PlatformResult<UserId> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        if !captcha_solved {
            return Err(PlatformError::CaptchaRequired);
        }
        let app =
            inner
                .apps
                .get(&invite.client_id)
                .cloned()
                .ok_or_else(|| PlatformError::OAuth {
                    reason: format!("unknown client_id {}", invite.client_id),
                })?;
        for scope in &invite.scopes {
            if scope.requires_whitelist() && !app.whitelisted {
                return Err(PlatformError::OAuth {
                    reason: format!("scope {scope} requires staff whitelist"),
                });
            }
            if scope.testing_only() {
                return Err(PlatformError::OAuth {
                    reason: format!("scope {scope} is for testing only"),
                });
            }
        }
        let g = inner
            .guilds
            .get_mut(&guild)
            .ok_or_else(|| PlatformError::NotFound {
                what: guild.to_string(),
            })?;
        require(g, installer, Permissions::MANAGE_GUILD, "install a chatbot")?;
        if g.members.contains_key(&app.bot_user) {
            return Ok(app.bot_user);
        }
        // Discord creates a managed role for the bot holding exactly the
        // permissions that were consented to, positioned above @everyone.
        let role_id = RoleId(inner.ids.next());
        let position = g.roles.values().map(|r| r.position).max().unwrap_or(0) + 1;
        g.roles.insert(
            role_id,
            Role {
                id: role_id,
                name: app.name.clone(),
                position,
                permissions: invite.permissions,
            },
        );
        g.members.insert(
            app.bot_user,
            Member {
                user: app.bot_user,
                roles: vec![role_id],
                nickname: None,
            },
        );
        let guild_name = g.name.clone();
        if let Some(bot_account) = inner.users.get_mut(&app.bot_user) {
            bot_account.guilds_joined += 1;
        }
        inner.audit.record(AuditEntry {
            at: inner.clock.now(),
            guild,
            actor: installer,
            action: AuditAction::BotInstalled { bot: app.bot_user },
        });
        // The GuildCreate event goes only to the newly added bot, before the
        // member-add fan-out, matching the order a real gateway delivers.
        if let Some(tx) = inner.gateways.get(&app.bot_user) {
            let _ = tx.send(GatewayEvent::GuildCreate { guild, guild_name });
        }
        // Other bots see the member-add; the new bot already got GuildCreate.
        dispatch_except(
            inner,
            guild,
            GatewayEvent::GuildMemberAdd {
                guild,
                user: app.bot_user,
            },
            Some(app.bot_user),
        );
        Ok(app.bot_user)
    }

    // ---- gateway ------------------------------------------------------

    /// Open a gateway connection for a bot account; events for guilds the
    /// bot is a member of will be delivered to the returned receiver.
    pub fn connect_gateway(&self, bot: UserId) -> PlatformResult<Receiver<GatewayEvent>> {
        let mut inner = self.inner.lock();
        let account = inner
            .users
            .get(&bot)
            .ok_or_else(|| PlatformError::NotFound {
                what: bot.to_string(),
            })?;
        if !account.is_bot() {
            return Err(PlatformError::Invalid {
                reason: "only bot accounts use the gateway".into(),
            });
        }
        let (tx, rx) = channel();
        inner.gateways.insert(bot, tx);
        Ok(rx)
    }

    // ---- messaging ------------------------------------------------------

    /// Post a message. Requires `SEND_MESSAGES` (and `ATTACH_FILES` when
    /// attachments are present) in the channel.
    pub fn send_message(
        &self,
        actor: UserId,
        channel: ChannelId,
        content: &str,
        attachments: Vec<Attachment>,
    ) -> PlatformResult<MessageId> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let guild_id =
            *inner
                .channel_guild
                .get(&channel)
                .ok_or_else(|| PlatformError::NotFound {
                    what: channel.to_string(),
                })?;
        let g = inner
            .guilds
            .get(&guild_id)
            .expect("channel_guild consistent");
        let perms = resolve::channel_permissions(g, channel, actor)?;
        if !perms.contains(Permissions::SEND_MESSAGES) {
            return Err(PlatformError::MissingPermission {
                required: Permissions::SEND_MESSAGES,
                action: "send a message".into(),
            });
        }
        if !attachments.is_empty() && !perms.contains(Permissions::ATTACH_FILES) {
            return Err(PlatformError::MissingPermission {
                required: Permissions::ATTACH_FILES,
                action: "attach files".into(),
            });
        }
        let id = MessageId(inner.ids.next());
        let message = Message {
            id,
            channel,
            author: actor,
            content: content.to_string(),
            attachments,
            at: inner.clock.now(),
        };
        inner
            .messages
            .entry(channel)
            .or_default()
            .push(message.clone());
        dispatch(
            inner,
            guild_id,
            GatewayEvent::MessageCreate {
                guild: guild_id,
                message,
            },
        );
        Ok(id)
    }

    /// Read a channel's message history. Requires `VIEW_CHANNEL` and
    /// `READ_MESSAGE_HISTORY`.
    pub fn read_history(&self, actor: UserId, channel: ChannelId) -> PlatformResult<Vec<Message>> {
        let inner = self.inner.lock();
        let guild_id =
            *inner
                .channel_guild
                .get(&channel)
                .ok_or_else(|| PlatformError::NotFound {
                    what: channel.to_string(),
                })?;
        let g = inner
            .guilds
            .get(&guild_id)
            .expect("channel_guild consistent");
        let actor_is_bot = inner.users.get(&actor).map(|u| u.is_bot()).unwrap_or(false);
        if inner.policy.applies_to(actor_is_bot) && !inner.policy.allows_bot_history_read() {
            return Err(PlatformError::MissingPermission {
                required: Permissions::READ_MESSAGE_HISTORY,
                action: "bulk-read history (denied by the runtime enforcer)".into(),
            });
        }
        let perms = resolve::channel_permissions(g, channel, actor)?;
        let needed = Permissions::VIEW_CHANNEL | Permissions::READ_MESSAGE_HISTORY;
        if !perms.contains(needed) {
            return Err(PlatformError::MissingPermission {
                required: needed,
                action: "read message history".into(),
            });
        }
        Ok(inner.messages.get(&channel).cloned().unwrap_or_default())
    }

    /// Delete a message. Own messages are always deletable; others require
    /// `MANAGE_MESSAGES`.
    pub fn delete_message(
        &self,
        actor: UserId,
        channel: ChannelId,
        id: MessageId,
    ) -> PlatformResult<()> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let guild_id =
            *inner
                .channel_guild
                .get(&channel)
                .ok_or_else(|| PlatformError::NotFound {
                    what: channel.to_string(),
                })?;
        let msgs = inner
            .messages
            .get_mut(&channel)
            .ok_or_else(|| PlatformError::NotFound {
                what: id.to_string(),
            })?;
        let idx = msgs
            .iter()
            .position(|m| m.id == id)
            .ok_or_else(|| PlatformError::NotFound {
                what: id.to_string(),
            })?;
        if msgs[idx].author != actor {
            let g = inner.guilds.get(&guild_id).expect("consistent");
            let perms = resolve::channel_permissions(g, channel, actor)?;
            if !perms.contains(Permissions::MANAGE_MESSAGES) {
                return Err(PlatformError::MissingPermission {
                    required: Permissions::MANAGE_MESSAGES,
                    action: "delete another user's message".into(),
                });
            }
        }
        msgs.remove(idx);
        inner.audit.record(AuditEntry {
            at: inner.clock.now(),
            guild: guild_id,
            actor,
            action: AuditAction::MessageDeleted,
        });
        Ok(())
    }

    // ---- moderation ------------------------------------------------------

    /// Kick a member. Requires `KICK_MEMBERS` and hierarchy rule 4.
    pub fn kick(&self, actor: UserId, guild: GuildId, subject: UserId) -> PlatformResult<()> {
        self.moderate(
            actor,
            guild,
            subject,
            Permissions::KICK_MEMBERS,
            "kick a member",
            |inner, g, s| {
                inner.audit.record(AuditEntry {
                    at: inner.clock.now(),
                    guild: g,
                    actor,
                    action: AuditAction::MemberKicked { subject: s },
                });
            },
        )
    }

    /// Ban a member. Requires `BAN_MEMBERS` and hierarchy rule 4.
    pub fn ban(&self, actor: UserId, guild: GuildId, subject: UserId) -> PlatformResult<()> {
        self.moderate(
            actor,
            guild,
            subject,
            Permissions::BAN_MEMBERS,
            "ban a member",
            |inner, g, s| {
                inner.audit.record(AuditEntry {
                    at: inner.clock.now(),
                    guild: g,
                    actor,
                    action: AuditAction::MemberBanned { subject: s },
                });
            },
        )
    }

    fn moderate(
        &self,
        actor: UserId,
        guild: GuildId,
        subject: UserId,
        required: Permissions,
        action: &str,
        record: impl FnOnce(&mut Inner, GuildId, UserId),
    ) -> PlatformResult<()> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let g = inner
            .guilds
            .get_mut(&guild)
            .ok_or_else(|| PlatformError::NotFound {
                what: guild.to_string(),
            })?;
        require(g, actor, required, action)?;
        hierarchy::can_moderate_member(g, actor, subject)?;
        if g.members.remove(&subject).is_none() {
            return Err(PlatformError::NotFound {
                what: subject.to_string(),
            });
        }
        record(inner, guild, subject);
        dispatch(
            inner,
            guild,
            GatewayEvent::GuildMemberRemove {
                guild,
                user: subject,
            },
        );
        Ok(())
    }

    /// Grant a role. Requires `MANAGE_ROLES` and hierarchy rule 1.
    pub fn grant_role(
        &self,
        actor: UserId,
        guild: GuildId,
        subject: UserId,
        role: RoleId,
    ) -> PlatformResult<()> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let g = inner
            .guilds
            .get_mut(&guild)
            .ok_or_else(|| PlatformError::NotFound {
                what: guild.to_string(),
            })?;
        require(g, actor, Permissions::MANAGE_ROLES, "grant a role")?;
        hierarchy::can_grant_role(g, actor, role)?;
        let member = g.member_mut(subject)?;
        if !member.roles.contains(&role) {
            member.roles.push(role);
        }
        inner.audit.record(AuditEntry {
            at: inner.clock.now(),
            guild,
            actor,
            action: AuditAction::RoleGranted { subject, role },
        });
        Ok(())
    }

    /// Create a role. Requires `MANAGE_ROLES`; the new role must sit below
    /// the actor's highest role (owner exempt).
    pub fn create_role(
        &self,
        actor: UserId,
        guild: GuildId,
        name: &str,
        position: u32,
        permissions: Permissions,
    ) -> PlatformResult<RoleId> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let g = inner
            .guilds
            .get_mut(&guild)
            .ok_or_else(|| PlatformError::NotFound {
                what: guild.to_string(),
            })?;
        require(g, actor, Permissions::MANAGE_ROLES, "create a role")?;
        if actor != g.owner {
            let top = g.highest_role_position(actor)?;
            if position >= top {
                return Err(PlatformError::HierarchyViolation {
                    rule: "can only create roles below own highest role",
                });
            }
            let actor_perms = resolve::guild_permissions(g, actor)?;
            if !actor_perms.contains(permissions) {
                return Err(PlatformError::HierarchyViolation {
                    rule: "can only grant permissions it has to created roles",
                });
            }
        }
        let rid = RoleId(inner.ids.next());
        g.roles.insert(
            rid,
            Role {
                id: rid,
                name: name.to_string(),
                position,
                permissions,
            },
        );
        Ok(rid)
    }

    /// Edit a role's permissions. Requires `MANAGE_ROLES` and rule 2.
    pub fn edit_role(
        &self,
        actor: UserId,
        guild: GuildId,
        role: RoleId,
        permissions: Permissions,
    ) -> PlatformResult<()> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let g = inner
            .guilds
            .get_mut(&guild)
            .ok_or_else(|| PlatformError::NotFound {
                what: guild.to_string(),
            })?;
        require(g, actor, Permissions::MANAGE_ROLES, "edit a role")?;
        hierarchy::can_edit_role(g, actor, role, permissions)?;
        g.roles
            .get_mut(&role)
            .expect("checked by can_edit_role")
            .permissions = permissions;
        inner.audit.record(AuditEntry {
            at: inner.clock.now(),
            guild,
            actor,
            action: AuditAction::RoleEdited { role },
        });
        Ok(())
    }

    /// Reposition a role. Requires `MANAGE_ROLES` and rule 3.
    pub fn sort_role(
        &self,
        actor: UserId,
        guild: GuildId,
        role: RoleId,
        position: u32,
    ) -> PlatformResult<()> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let g = inner
            .guilds
            .get_mut(&guild)
            .ok_or_else(|| PlatformError::NotFound {
                what: guild.to_string(),
            })?;
        require(g, actor, Permissions::MANAGE_ROLES, "sort roles")?;
        hierarchy::can_sort_role(g, actor, role, position)?;
        g.roles
            .get_mut(&role)
            .expect("checked by can_sort_role")
            .position = position;
        inner.audit.record(AuditEntry {
            at: inner.clock.now(),
            guild,
            actor,
            action: AuditAction::RoleSorted { role, position },
        });
        Ok(())
    }

    /// Change a nickname. Own nickname needs `CHANGE_NICKNAME`; others need
    /// `MANAGE_NICKNAMES` plus hierarchy rule 4.
    pub fn change_nickname(
        &self,
        actor: UserId,
        guild: GuildId,
        subject: UserId,
        nickname: Option<String>,
    ) -> PlatformResult<()> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let g = inner
            .guilds
            .get_mut(&guild)
            .ok_or_else(|| PlatformError::NotFound {
                what: guild.to_string(),
            })?;
        if actor == subject {
            require(
                g,
                actor,
                Permissions::CHANGE_NICKNAME,
                "change own nickname",
            )?;
        } else {
            require(g, actor, Permissions::MANAGE_NICKNAMES, "manage nicknames")?;
            hierarchy::can_moderate_member(g, actor, subject)?;
        }
        g.member_mut(subject)?.nickname = nickname;
        inner.audit.record(AuditEntry {
            at: inner.clock.now(),
            guild,
            actor,
            action: AuditAction::NicknameChanged { subject },
        });
        Ok(())
    }

    // ---- reactions & pins -------------------------------------------------

    /// React to a message. Requires `ADD_REACTIONS` (and
    /// `USE_EXTERNAL_EMOJIS` for external emojis) in the channel.
    pub fn add_reaction(
        &self,
        actor: UserId,
        channel: ChannelId,
        message: MessageId,
        emoji: Emoji,
    ) -> PlatformResult<()> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let guild_id =
            *inner
                .channel_guild
                .get(&channel)
                .ok_or_else(|| PlatformError::NotFound {
                    what: channel.to_string(),
                })?;
        let g = inner.guilds.get(&guild_id).expect("consistent");
        let perms = resolve::channel_permissions(g, channel, actor)?;
        if !perms.contains(Permissions::ADD_REACTIONS) {
            return Err(PlatformError::MissingPermission {
                required: Permissions::ADD_REACTIONS,
                action: "add a reaction".into(),
            });
        }
        if matches!(emoji, Emoji::External(_)) && !perms.contains(Permissions::USE_EXTERNAL_EMOJIS)
        {
            return Err(PlatformError::MissingPermission {
                required: Permissions::USE_EXTERNAL_EMOJIS,
                action: "react with an external emoji".into(),
            });
        }
        let exists = inner
            .messages
            .get(&channel)
            .map(|msgs| msgs.iter().any(|m| m.id == message))
            .unwrap_or(false);
        if !exists {
            return Err(PlatformError::NotFound {
                what: message.to_string(),
            });
        }
        let entry = inner.reactions.entry(message).or_default();
        if !entry.iter().any(|(u, e)| *u == actor && *e == emoji) {
            entry.push((actor, emoji));
        }
        Ok(())
    }

    /// Reactions on a message. Requires `VIEW_CHANNEL`.
    pub fn reactions(
        &self,
        actor: UserId,
        channel: ChannelId,
        message: MessageId,
    ) -> PlatformResult<Vec<(UserId, Emoji)>> {
        let inner = self.inner.lock();
        let guild_id =
            *inner
                .channel_guild
                .get(&channel)
                .ok_or_else(|| PlatformError::NotFound {
                    what: channel.to_string(),
                })?;
        let g = inner.guilds.get(&guild_id).expect("consistent");
        let perms = resolve::channel_permissions(g, channel, actor)?;
        if !perms.contains(Permissions::VIEW_CHANNEL) {
            return Err(PlatformError::MissingPermission {
                required: Permissions::VIEW_CHANNEL,
                action: "view reactions".into(),
            });
        }
        Ok(inner.reactions.get(&message).cloned().unwrap_or_default())
    }

    /// Pin a message. Requires `MANAGE_MESSAGES`.
    pub fn pin_message(
        &self,
        actor: UserId,
        channel: ChannelId,
        message: MessageId,
    ) -> PlatformResult<()> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let guild_id =
            *inner
                .channel_guild
                .get(&channel)
                .ok_or_else(|| PlatformError::NotFound {
                    what: channel.to_string(),
                })?;
        let g = inner.guilds.get(&guild_id).expect("consistent");
        let perms = resolve::channel_permissions(g, channel, actor)?;
        if !perms.contains(Permissions::MANAGE_MESSAGES) {
            return Err(PlatformError::MissingPermission {
                required: Permissions::MANAGE_MESSAGES,
                action: "pin a message".into(),
            });
        }
        let exists = inner
            .messages
            .get(&channel)
            .map(|msgs| msgs.iter().any(|m| m.id == message))
            .unwrap_or(false);
        if !exists {
            return Err(PlatformError::NotFound {
                what: message.to_string(),
            });
        }
        let pins = inner.pins.entry(channel).or_default();
        if !pins.contains(&message) {
            pins.push(message);
        }
        Ok(())
    }

    /// Pinned messages of a channel. Requires `VIEW_CHANNEL`.
    pub fn pins(&self, actor: UserId, channel: ChannelId) -> PlatformResult<Vec<MessageId>> {
        let inner = self.inner.lock();
        let guild_id =
            *inner
                .channel_guild
                .get(&channel)
                .ok_or_else(|| PlatformError::NotFound {
                    what: channel.to_string(),
                })?;
        let g = inner.guilds.get(&guild_id).expect("consistent");
        let perms = resolve::channel_permissions(g, channel, actor)?;
        if !perms.contains(Permissions::VIEW_CHANNEL) {
            return Err(PlatformError::MissingPermission {
                required: Permissions::VIEW_CHANNEL,
                action: "view pins".into(),
            });
        }
        Ok(inner.pins.get(&channel).cloned().unwrap_or_default())
    }

    // ---- slash commands -----------------------------------------------------

    /// Register (replace) an application's slash commands. Requires the
    /// `applications.commands`-style developer access — modeled as: only
    /// the app's owner account may register.
    pub fn register_slash_commands(
        &self,
        actor: UserId,
        client_id: u64,
        commands: Vec<SlashCommand>,
    ) -> PlatformResult<()> {
        let mut inner = self.inner.lock();
        let app = inner
            .apps
            .get(&client_id)
            .ok_or_else(|| PlatformError::NotFound {
                what: format!("app {client_id}"),
            })?;
        let owner = inner
            .users
            .get(&app.bot_user)
            .and_then(|u| u.owner())
            .ok_or_else(|| PlatformError::Invalid {
                reason: "app has no owner".into(),
            })?;
        if actor != owner {
            return Err(PlatformError::Invalid {
                reason: "only the application owner may register commands".into(),
            });
        }
        inner.slash_commands.insert(client_id, commands);
        Ok(())
    }

    /// The commands an application has registered.
    pub fn slash_commands(&self, client_id: u64) -> Vec<SlashCommand> {
        self.inner
            .lock()
            .slash_commands
            .get(&client_id)
            .cloned()
            .unwrap_or_default()
    }

    /// Invoke a slash command.
    ///
    /// This is the §5 fix in action: the **platform** checks the invoking
    /// user's effective permissions against the command's
    /// `default_member_permissions` *before* the bot's backend is told
    /// anything. An unauthorized invoker is rejected here; the developer
    /// cannot forget the check because it is not theirs to perform.
    pub fn invoke_slash(
        &self,
        invoker: UserId,
        channel: ChannelId,
        client_id: u64,
        command: &str,
        args: &str,
    ) -> PlatformResult<()> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let guild_id =
            *inner
                .channel_guild
                .get(&channel)
                .ok_or_else(|| PlatformError::NotFound {
                    what: channel.to_string(),
                })?;
        let app = inner
            .apps
            .get(&client_id)
            .cloned()
            .ok_or_else(|| PlatformError::NotFound {
                what: format!("app {client_id}"),
            })?;
        let g = inner
            .guilds
            .get(&guild_id)
            .ok_or_else(|| PlatformError::NotFound {
                what: guild_id.to_string(),
            })?;
        if g.member(app.bot_user).is_err() {
            return Err(PlatformError::NotFound {
                what: "bot not installed in this guild".into(),
            });
        }
        let spec = inner
            .slash_commands
            .get(&client_id)
            .and_then(|cmds| cmds.iter().find(|c| c.name == command))
            .cloned()
            .ok_or_else(|| PlatformError::NotFound {
                what: format!("command /{command}"),
            })?;

        // Platform-enforced invoker check.
        let invoker_perms = resolve::channel_permissions(g, channel, invoker)?;
        if !invoker_perms.contains(spec.default_member_permissions) {
            return Err(PlatformError::MissingPermission {
                required: spec.default_member_permissions,
                action: format!("invoke /{command}"),
            });
        }

        if let Some(tx) = inner.gateways.get(&app.bot_user) {
            let _ = tx.send(GatewayEvent::InteractionCreate {
                guild: guild_id,
                channel,
                invoker,
                command: command.to_string(),
                args: args.to_string(),
            });
        }
        Ok(())
    }

    // ---- webhooks ---------------------------------------------------------

    /// Create an incoming webhook on a channel. Requires `MANAGE_WEBHOOKS`.
    pub fn create_webhook(
        &self,
        actor: UserId,
        channel: ChannelId,
        name: &str,
    ) -> PlatformResult<Webhook> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let guild_id =
            *inner
                .channel_guild
                .get(&channel)
                .ok_or_else(|| PlatformError::NotFound {
                    what: channel.to_string(),
                })?;
        let g = inner.guilds.get(&guild_id).expect("consistent");
        let perms = resolve::channel_permissions(g, channel, actor)?;
        if !perms.contains(Permissions::MANAGE_WEBHOOKS) {
            return Err(PlatformError::MissingPermission {
                required: Permissions::MANAGE_WEBHOOKS,
                action: "create a webhook".into(),
            });
        }
        let id = inner.ids.next();
        let hook_user = UserId(inner.ids.next());
        inner.users.insert(
            hook_user,
            User {
                id: hook_user,
                name: format!("{name}#webhook"),
                kind: UserKind::Bot { owner: actor },
                email: String::new(),
                mobile_verified: true,
                guilds_joined: 0,
            },
        );
        let webhook = Webhook {
            id,
            channel,
            name: name.to_string(),
            token: format!("whsec-{id}"),
            user: hook_user,
        };
        inner.webhooks.insert(id, webhook.clone());
        Ok(webhook)
    }

    /// Post through a webhook. **Token possession is the only check** —
    /// this is the documented behaviour the malware ecosystem abuses.
    pub fn execute_webhook(
        &self,
        id: Snowflake,
        token: &str,
        content: &str,
    ) -> PlatformResult<MessageId> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let hook = inner
            .webhooks
            .get(&id)
            .ok_or_else(|| PlatformError::NotFound {
                what: format!("webhook {id}"),
            })?
            .clone();
        if hook.token != token {
            return Err(PlatformError::Invalid {
                reason: "bad webhook token".into(),
            });
        }
        let guild_id =
            *inner
                .channel_guild
                .get(&hook.channel)
                .ok_or_else(|| PlatformError::NotFound {
                    what: hook.channel.to_string(),
                })?;
        let msg_id = MessageId(inner.ids.next());
        let message = Message {
            id: msg_id,
            channel: hook.channel,
            author: hook.user,
            content: content.to_string(),
            attachments: Vec::new(),
            at: inner.clock.now(),
        };
        inner
            .messages
            .entry(hook.channel)
            .or_default()
            .push(message.clone());
        dispatch(
            inner,
            guild_id,
            GatewayEvent::MessageCreate {
                guild: guild_id,
                message,
            },
        );
        Ok(msg_id)
    }

    /// List a channel's webhooks (tokens included — which is exactly why
    /// `MANAGE_WEBHOOKS` is a sensitive permission). Requires it.
    pub fn webhooks(&self, actor: UserId, channel: ChannelId) -> PlatformResult<Vec<Webhook>> {
        let inner = self.inner.lock();
        let guild_id =
            *inner
                .channel_guild
                .get(&channel)
                .ok_or_else(|| PlatformError::NotFound {
                    what: channel.to_string(),
                })?;
        let g = inner.guilds.get(&guild_id).expect("consistent");
        let perms = resolve::channel_permissions(g, channel, actor)?;
        if !perms.contains(Permissions::MANAGE_WEBHOOKS) {
            return Err(PlatformError::MissingPermission {
                required: Permissions::MANAGE_WEBHOOKS,
                action: "list webhooks".into(),
            });
        }
        Ok(inner
            .webhooks
            .values()
            .filter(|w| w.channel == channel)
            .cloned()
            .collect())
    }

    /// Delete a webhook. Requires `MANAGE_WEBHOOKS` on its channel.
    pub fn delete_webhook(&self, actor: UserId, id: Snowflake) -> PlatformResult<()> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let hook = inner
            .webhooks
            .get(&id)
            .ok_or_else(|| PlatformError::NotFound {
                what: format!("webhook {id}"),
            })?
            .clone();
        let guild_id =
            *inner
                .channel_guild
                .get(&hook.channel)
                .ok_or_else(|| PlatformError::NotFound {
                    what: hook.channel.to_string(),
                })?;
        let g = inner.guilds.get(&guild_id).expect("consistent");
        let perms = resolve::channel_permissions(g, hook.channel, actor)?;
        if !perms.contains(Permissions::MANAGE_WEBHOOKS) {
            return Err(PlatformError::MissingPermission {
                required: Permissions::MANAGE_WEBHOOKS,
                action: "delete a webhook".into(),
            });
        }
        inner.webhooks.remove(&id);
        Ok(())
    }

    // ---- voice --------------------------------------------------------------

    /// Join a voice channel. Requires `CONNECT` and a voice-kind channel.
    pub fn join_voice(&self, actor: UserId, channel: ChannelId) -> PlatformResult<()> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let guild_id =
            *inner
                .channel_guild
                .get(&channel)
                .ok_or_else(|| PlatformError::NotFound {
                    what: channel.to_string(),
                })?;
        let g = inner.guilds.get(&guild_id).expect("consistent");
        if g.channel(channel)?.kind != ChannelKind::Voice {
            return Err(PlatformError::Invalid {
                reason: "not a voice channel".into(),
            });
        }
        let perms = resolve::channel_permissions(g, channel, actor)?;
        if !perms.contains(Permissions::CONNECT) {
            return Err(PlatformError::MissingPermission {
                required: Permissions::CONNECT,
                action: "connect to voice".into(),
            });
        }
        let members = inner.voice_states.entry(channel).or_default();
        if !members.contains(&actor) {
            members.push(actor);
        }
        Ok(())
    }

    /// Leave a voice channel (idempotent).
    pub fn leave_voice(&self, actor: UserId, channel: ChannelId) {
        let mut inner = self.inner.lock();
        if let Some(members) = inner.voice_states.get_mut(&channel) {
            members.retain(|u| *u != actor);
        }
    }

    /// Transmit audio in a joined voice channel. Requires `SPEAK`, presence
    /// in the channel, and not being server-muted.
    pub fn speak(&self, actor: UserId, channel: ChannelId) -> PlatformResult<()> {
        let inner = self.inner.lock();
        let guild_id =
            *inner
                .channel_guild
                .get(&channel)
                .ok_or_else(|| PlatformError::NotFound {
                    what: channel.to_string(),
                })?;
        let g = inner.guilds.get(&guild_id).expect("consistent");
        if !inner
            .voice_states
            .get(&channel)
            .map(|m| m.contains(&actor))
            .unwrap_or(false)
        {
            return Err(PlatformError::Invalid {
                reason: "not connected to this voice channel".into(),
            });
        }
        if inner
            .voice_muted
            .get(&guild_id)
            .map(|m| m.contains(&actor))
            .unwrap_or(false)
        {
            return Err(PlatformError::Invalid {
                reason: "server-muted".into(),
            });
        }
        let perms = resolve::channel_permissions(g, channel, actor)?;
        if !perms.contains(Permissions::SPEAK) {
            return Err(PlatformError::MissingPermission {
                required: Permissions::SPEAK,
                action: "speak in voice".into(),
            });
        }
        Ok(())
    }

    /// Server-mute a member. Requires `MUTE_MEMBERS`.
    pub fn mute_member(
        &self,
        actor: UserId,
        guild: GuildId,
        subject: UserId,
    ) -> PlatformResult<()> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let g = inner
            .guilds
            .get_mut(&guild)
            .ok_or_else(|| PlatformError::NotFound {
                what: guild.to_string(),
            })?;
        require(g, actor, Permissions::MUTE_MEMBERS, "server-mute a member")?;
        g.member(subject)?;
        let muted = inner.voice_muted.entry(guild).or_default();
        if !muted.contains(&subject) {
            muted.push(subject);
        }
        Ok(())
    }

    /// Members currently in a voice channel.
    pub fn voice_members(&self, channel: ChannelId) -> Vec<UserId> {
        self.inner
            .lock()
            .voice_states
            .get(&channel)
            .cloned()
            .unwrap_or_default()
    }

    // ---- introspection ---------------------------------------------------

    /// Audit log for a guild. Requires `VIEW_AUDIT_LOG`.
    pub fn audit_log(&self, actor: UserId, guild: GuildId) -> PlatformResult<Vec<AuditEntry>> {
        let inner = self.inner.lock();
        let g = inner
            .guilds
            .get(&guild)
            .ok_or_else(|| PlatformError::NotFound {
                what: guild.to_string(),
            })?;
        require(g, actor, Permissions::VIEW_AUDIT_LOG, "view the audit log")?;
        Ok(inner.audit.for_guild(guild).into_iter().cloned().collect())
    }

    /// How many guilds a bot account is in — the "guild count" the listing
    /// site displays.
    pub fn bot_guild_count(&self, bot: UserId) -> usize {
        let inner = self.inner.lock();
        inner
            .guilds
            .values()
            .filter(|g| g.members.contains_key(&bot))
            .count()
    }

    /// Effective permissions of `user` in `channel` (public wrapper over
    /// [`resolve::channel_permissions`] for bot SDKs and tests).
    pub fn effective_permissions(
        &self,
        user: UserId,
        channel: ChannelId,
    ) -> PlatformResult<Permissions> {
        let inner = self.inner.lock();
        let guild_id =
            *inner
                .channel_guild
                .get(&channel)
                .ok_or_else(|| PlatformError::NotFound {
                    what: channel.to_string(),
                })?;
        let g = inner.guilds.get(&guild_id).expect("consistent");
        resolve::channel_permissions(g, channel, user)
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> VirtualClock {
        self.inner.lock().clock.clone()
    }

    /// Switch the platform's runtime policy (see [`crate::enforcer`]).
    ///
    /// Discord runs [`RuntimePolicy::Unenforced`]; flipping to
    /// [`RuntimePolicy::Enforced`] retrofits the Slack/Teams-style runtime
    /// enforcer the paper's §6 contrasts against.
    pub fn set_runtime_policy(&self, policy: RuntimePolicy) {
        self.inner.lock().policy = policy;
    }

    /// The current runtime policy.
    pub fn runtime_policy(&self) -> RuntimePolicy {
        self.inner.lock().policy
    }

    /// Toggle "Bots can Snoop"-style per-message least-privilege delivery:
    /// when on, a bot's gateway receives a message event only if the
    /// message @-mentions the bot or its first token matches one of the
    /// bot's [registered commands](Self::register_bot_commands). History
    /// reads and attachment delivery are untouched — this mediates message
    /// fan-out only, so its effect on honeypot detections can be measured
    /// separately from the full runtime enforcer.
    pub fn set_least_privilege_delivery(&self, on: bool) {
        self.inner.lock().least_privilege = on;
    }

    /// Whether least-privilege delivery is on.
    pub fn least_privilege_delivery(&self) -> bool {
        self.inner.lock().least_privilege
    }

    /// Declare the command words a bot answers to (e.g. `!kick`). Under
    /// least-privilege delivery these are the only non-mention messages the
    /// bot receives; with the toggle off they are advisory metadata.
    pub fn register_bot_commands(&self, bot: UserId, commands: Vec<String>) {
        self.inner.lock().bot_commands.insert(bot, commands);
    }

    /// The registered command words of a bot.
    pub fn registered_commands(&self, bot: UserId) -> Vec<String> {
        self.inner
            .lock()
            .bot_commands
            .get(&bot)
            .cloned()
            .unwrap_or_default()
    }
}

/// Check a guild-level permission for `actor`, honouring admin/owner.
fn require(
    guild: &Guild,
    actor: UserId,
    required: Permissions,
    action: &str,
) -> PlatformResult<()> {
    let perms = resolve::guild_permissions(guild, actor)?;
    if perms.contains(required) {
        Ok(())
    } else {
        Err(PlatformError::MissingPermission {
            required,
            action: action.to_string(),
        })
    }
}

/// Send an event to every bot member of `guild` with an open gateway.
fn dispatch(inner: &mut Inner, guild: GuildId, event: GatewayEvent) {
    dispatch_except(inner, guild, event, None);
}

/// Like [`dispatch`] but optionally skipping one recipient.
///
/// Message events pass through the runtime enforcer per recipient: under
/// [`RuntimePolicy::Enforced`] a bot only sees messages that address it,
/// and attachments are stripped from what it does see.
fn dispatch_except(inner: &mut Inner, guild: GuildId, event: GatewayEvent, except: Option<UserId>) {
    let Some(g) = inner.guilds.get(&guild) else {
        return;
    };
    let policy = inner.policy;
    for uid in g.members.keys() {
        if Some(*uid) == except {
            continue;
        }
        if let Some(user) = inner.users.get(uid) {
            if user.is_bot() {
                if let Some(tx) = inner.gateways.get(uid) {
                    if let GatewayEvent::MessageCreate {
                        guild: g_id,
                        message,
                    } = &event
                    {
                        let slug = user
                            .name
                            .split('#')
                            .next()
                            .unwrap_or(&user.name)
                            .to_ascii_lowercase();
                        if inner.least_privilege {
                            let commands = inner
                                .bot_commands
                                .get(uid)
                                .map(Vec::as_slice)
                                .unwrap_or(&[]);
                            if !crate::enforcer::least_privilege_delivers(message, &slug, commands)
                            {
                                continue;
                            }
                        }
                        if policy.applies_to(true) {
                            if !policy.delivers_message(message, &slug) {
                                continue;
                            }
                            let _ = tx.send(GatewayEvent::MessageCreate {
                                guild: *g_id,
                                message: policy.sanitize(message.clone()),
                            });
                            continue;
                        }
                    }
                    let _ = tx.send(event.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oauth::OAuthScope;

    struct World {
        platform: Platform,
        owner: UserId,
        alice: UserId,
        guild: GuildId,
        channel: ChannelId,
    }

    fn world() -> World {
        let platform = Platform::new(VirtualClock::new());
        let owner = platform.register_user("owner#1", "o@example.org");
        let alice = platform.register_user("alice#2", "a@example.org");
        let guild = platform
            .create_guild(owner, "w", GuildVisibility::Public)
            .unwrap();
        platform.join_guild(alice, guild, None).unwrap();
        let channel = platform.default_channel(guild).unwrap();
        World {
            platform,
            owner,
            alice,
            guild,
            channel,
        }
    }

    fn install_test_bot(w: &World, perms: Permissions) -> (UserId, Receiver<GatewayEvent>) {
        let app = w
            .platform
            .register_bot_application(w.owner, "TestBot")
            .unwrap();
        let rx = w.platform.connect_gateway(app.bot_user).unwrap();
        let invite = InviteUrl::bot(app.client_id, perms);
        let bot = w
            .platform
            .install_bot(w.owner, w.guild, &invite, true)
            .unwrap();
        (bot, rx)
    }

    #[test]
    fn messaging_flow_and_history() {
        let w = world();
        let id = w
            .platform
            .send_message(w.alice, w.channel, "hello", vec![])
            .unwrap();
        let history = w.platform.read_history(w.alice, w.channel).unwrap();
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].id, id);
        assert_eq!(history[0].content, "hello");
    }

    #[test]
    fn sending_requires_permission() {
        let w = world();
        // Take SEND_MESSAGES away from @everyone.
        let everyone = w.platform.guild(w.guild).unwrap().everyone_role;
        let base = Permissions::everyone_defaults().difference(Permissions::SEND_MESSAGES);
        w.platform
            .edit_role(w.owner, w.guild, everyone, base)
            .unwrap();
        let err = w
            .platform
            .send_message(w.alice, w.channel, "hi", vec![])
            .unwrap_err();
        assert!(matches!(err, PlatformError::MissingPermission { .. }));
        // Owner still can (owner override).
        assert!(w
            .platform
            .send_message(w.owner, w.channel, "hi", vec![])
            .is_ok());
    }

    #[test]
    fn attachments_need_attach_files() {
        let w = world();
        let everyone = w.platform.guild(w.guild).unwrap().everyone_role;
        let base = Permissions::everyone_defaults().difference(Permissions::ATTACH_FILES);
        w.platform
            .edit_role(w.owner, w.guild, everyone, base)
            .unwrap();
        let att = Attachment::new("x.pdf", "application/pdf", vec![0u8]);
        let err = w
            .platform
            .send_message(w.alice, w.channel, "doc", vec![att])
            .unwrap_err();
        assert!(matches!(err, PlatformError::MissingPermission { .. }));
    }

    #[test]
    fn install_requires_manage_guild_and_captcha() {
        let w = world();
        let app = w.platform.register_bot_application(w.owner, "B").unwrap();
        let invite = InviteUrl::bot(app.client_id, Permissions::SEND_MESSAGES);
        // Alice lacks MANAGE_GUILD.
        let err = w
            .platform
            .install_bot(w.alice, w.guild, &invite, true)
            .unwrap_err();
        assert!(matches!(err, PlatformError::MissingPermission { .. }));
        // Captcha unsolved.
        let err = w
            .platform
            .install_bot(w.owner, w.guild, &invite, false)
            .unwrap_err();
        assert_eq!(err, PlatformError::CaptchaRequired);
        // Owner with captcha: ok.
        let bot = w
            .platform
            .install_bot(w.owner, w.guild, &invite, true)
            .unwrap();
        assert_eq!(w.platform.bot_guild_count(bot), 1);
    }

    #[test]
    fn install_creates_managed_role_with_requested_permissions() {
        let w = world();
        let (bot, _rx) =
            install_test_bot(&w, Permissions::KICK_MEMBERS | Permissions::SEND_MESSAGES);
        let g = w.platform.guild(w.guild).unwrap();
        let member = g.member(bot).unwrap();
        assert_eq!(member.roles.len(), 1);
        let role = g.role(member.roles[0]).unwrap();
        assert!(role.permissions.contains(Permissions::KICK_MEMBERS));
        assert!(role.position > 0);
    }

    #[test]
    fn whitelist_gated_scopes() {
        let w = world();
        let app = w.platform.register_bot_application(w.owner, "Spy").unwrap();
        let invite =
            InviteUrl::bot(app.client_id, Permissions::NONE).with_scope(OAuthScope::MessagesRead);
        let err = w
            .platform
            .install_bot(w.owner, w.guild, &invite, true)
            .unwrap_err();
        assert!(matches!(err, PlatformError::OAuth { .. }));
        w.platform.whitelist_application(app.client_id).unwrap();
        assert!(w
            .platform
            .install_bot(w.owner, w.guild, &invite, true)
            .is_ok());
    }

    #[test]
    fn testing_scopes_rejected_outright() {
        let w = world();
        let app = w
            .platform
            .register_bot_application(w.owner, "RpcBot")
            .unwrap();
        let invite = InviteUrl::bot(app.client_id, Permissions::NONE).with_scope(OAuthScope::Rpc);
        let err = w
            .platform
            .install_bot(w.owner, w.guild, &invite, true)
            .unwrap_err();
        assert!(matches!(err, PlatformError::OAuth { .. }));
    }

    #[test]
    fn gateway_receives_messages_after_install() {
        let w = world();
        let (_bot, rx) = install_test_bot(&w, Permissions::SEND_MESSAGES);
        // GuildCreate arrives on install.
        let ev = rx.try_recv().unwrap();
        assert!(matches!(ev, GatewayEvent::GuildCreate { .. }));
        w.platform
            .send_message(w.alice, w.channel, "hello bot", vec![])
            .unwrap();
        let ev = rx.try_recv().unwrap();
        match ev {
            GatewayEvent::MessageCreate { message, .. } => assert_eq!(message.content, "hello bot"),
            other => panic!("expected MessageCreate, got {other:?}"),
        }
    }

    #[test]
    fn kick_checks_permission_and_hierarchy() {
        let w = world();
        // Alice cannot kick (no permission).
        let err = w.platform.kick(w.alice, w.guild, w.owner).unwrap_err();
        assert!(matches!(err, PlatformError::MissingPermission { .. }));
        // An admin bot can kick alice…
        let (bot, _rx) = install_test_bot(&w, Permissions::ADMINISTRATOR);
        w.platform.kick(bot, w.guild, w.alice).unwrap();
        assert!(w.platform.guild(w.guild).unwrap().member(w.alice).is_err());
        // …but not the owner (rule 4 / owner protection).
        let err = w.platform.kick(bot, w.guild, w.owner).unwrap_err();
        assert!(matches!(err, PlatformError::HierarchyViolation { .. }));
    }

    #[test]
    fn private_guild_needs_invite() {
        let platform = Platform::new(VirtualClock::new());
        let owner = platform.register_user("o", "o@x.y");
        let alice = platform.register_user("a", "a@x.y");
        let guild = platform
            .create_guild(owner, "secret", GuildVisibility::Private)
            .unwrap();
        assert_eq!(
            platform.join_guild(alice, guild, None).unwrap_err(),
            PlatformError::InviteRequired
        );
        assert_eq!(
            platform
                .join_guild(alice, guild, Some("bogus"))
                .unwrap_err(),
            PlatformError::InviteRequired
        );
        let code = platform.create_invite(owner, guild).unwrap();
        platform.join_guild(alice, guild, Some(&code)).unwrap();
        assert!(platform.guild(guild).unwrap().member(alice).is_ok());
    }

    #[test]
    fn unverified_account_flagged_after_many_joins() {
        let platform = Platform::new(VirtualClock::new());
        let owner = platform.register_user("o", "o@x.y");
        let persona = platform.register_user("p", "p@x.y");
        let mut flagged = false;
        for i in 0..UNVERIFIED_GUILD_LIMIT + 2 {
            let g = platform
                .create_guild(owner, &format!("g{i}"), GuildVisibility::Public)
                .unwrap();
            match platform.join_guild(persona, g, None) {
                Ok(()) => {}
                Err(PlatformError::VerificationRequired) => {
                    flagged = true;
                    // Manual mobile verification unblocks (as in the paper).
                    platform.verify_mobile(persona).unwrap();
                    platform.join_guild(persona, g, None).unwrap();
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(flagged, "anti-abuse flag should have fired");
    }

    #[test]
    fn bots_cannot_join_directly() {
        let w = world();
        let app = w.platform.register_bot_application(w.owner, "B").unwrap();
        let err = w
            .platform
            .join_guild(app.bot_user, w.guild, None)
            .unwrap_err();
        assert!(matches!(err, PlatformError::Invalid { .. }));
    }

    #[test]
    fn role_lifecycle_with_checks() {
        let w = world();
        let role = w
            .platform
            .create_role(w.owner, w.guild, "Mod", 5, Permissions::KICK_MEMBERS)
            .unwrap();
        w.platform
            .grant_role(w.owner, w.guild, w.alice, role)
            .unwrap();
        let g = w.platform.guild(w.guild).unwrap();
        assert!(g.member(w.alice).unwrap().roles.contains(&role));
        // Alice (Mod, pos 5) cannot edit her own role upward (rule 2).
        let err = w
            .platform
            .edit_role(w.alice, w.guild, role, Permissions::ADMINISTRATOR)
            .unwrap_err();
        assert!(matches!(
            err,
            PlatformError::MissingPermission { .. } | PlatformError::HierarchyViolation { .. }
        ));
    }

    #[test]
    fn delete_message_rules() {
        let w = world();
        let mine = w
            .platform
            .send_message(w.alice, w.channel, "mine", vec![])
            .unwrap();
        let theirs = w
            .platform
            .send_message(w.owner, w.channel, "theirs", vec![])
            .unwrap();
        // Own message: fine.
        w.platform.delete_message(w.alice, w.channel, mine).unwrap();
        // Someone else's without MANAGE_MESSAGES: denied.
        let err = w
            .platform
            .delete_message(w.alice, w.channel, theirs)
            .unwrap_err();
        assert!(matches!(err, PlatformError::MissingPermission { .. }));
        // Owner can delete anything.
        w.platform
            .delete_message(w.owner, w.channel, theirs)
            .unwrap();
        assert!(w
            .platform
            .read_history(w.owner, w.channel)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn audit_log_requires_permission_and_records() {
        let w = world();
        let (bot, _rx) = install_test_bot(&w, Permissions::ADMINISTRATOR);
        w.platform.kick(bot, w.guild, w.alice).unwrap();
        let err = w.platform.audit_log(w.alice, w.guild).unwrap_err();
        assert!(matches!(
            err,
            PlatformError::NotAMember | PlatformError::MissingPermission { .. }
        ));
        let log = w.platform.audit_log(w.owner, w.guild).unwrap();
        assert!(log
            .iter()
            .any(|e| matches!(e.action, AuditAction::BotInstalled { .. })));
        assert!(log
            .iter()
            .any(|e| matches!(e.action, AuditAction::MemberKicked { .. })));
    }

    #[test]
    fn nickname_rules() {
        let w = world();
        // Self-change allowed by default.
        w.platform
            .change_nickname(w.alice, w.guild, w.alice, Some("Ally".into()))
            .unwrap();
        // Changing someone else's needs MANAGE_NICKNAMES.
        let err = w
            .platform
            .change_nickname(w.alice, w.guild, w.owner, Some("Bossy".into()))
            .unwrap_err();
        assert!(matches!(err, PlatformError::MissingPermission { .. }));
        // Owner can rename alice.
        w.platform
            .change_nickname(w.owner, w.guild, w.alice, Some("A2".into()))
            .unwrap();
        let g = w.platform.guild(w.guild).unwrap();
        assert_eq!(g.member(w.alice).unwrap().nickname.as_deref(), Some("A2"));
    }

    #[test]
    fn reinstall_is_idempotent() {
        let w = world();
        let app = w.platform.register_bot_application(w.owner, "B").unwrap();
        let invite = InviteUrl::bot(app.client_id, Permissions::SEND_MESSAGES);
        let a = w
            .platform
            .install_bot(w.owner, w.guild, &invite, true)
            .unwrap();
        let b = w
            .platform
            .install_bot(w.owner, w.guild, &invite, true)
            .unwrap();
        assert_eq!(a, b);
        let g = w.platform.guild(w.guild).unwrap();
        // Only one managed role was created.
        assert_eq!(g.member(a).unwrap().roles.len(), 1);
    }

    #[test]
    fn slash_commands_platform_checks_the_invoker() {
        use crate::slash::SlashCommand;
        let w = world();
        let app = w
            .platform
            .register_bot_application(w.owner, "SlashMod")
            .unwrap();
        let rx = w.platform.connect_gateway(app.bot_user).unwrap();
        w.platform
            .install_bot(
                w.owner,
                w.guild,
                &InviteUrl::bot(app.client_id, Permissions::KICK_MEMBERS),
                true,
            )
            .unwrap();
        let _ = rx.try_recv(); // GuildCreate
        w.platform
            .register_slash_commands(
                w.owner,
                app.client_id,
                vec![
                    SlashCommand::public("ping", "pong"),
                    SlashCommand::gated("kick", "remove a member", Permissions::KICK_MEMBERS),
                ],
            )
            .unwrap();
        assert_eq!(w.platform.slash_commands(app.client_id).len(), 2);

        // Alice may /ping but not /kick — the PLATFORM rejects her, the
        // backend never receives the interaction.
        w.platform
            .invoke_slash(w.alice, w.channel, app.client_id, "ping", "")
            .unwrap();
        let err = w
            .platform
            .invoke_slash(w.alice, w.channel, app.client_id, "kick", "123")
            .unwrap_err();
        assert!(matches!(err, PlatformError::MissingPermission { .. }));
        // The owner passes the gate.
        w.platform
            .invoke_slash(w.owner, w.channel, app.client_id, "kick", "123")
            .unwrap();

        let mut delivered = Vec::new();
        while let Ok(ev) = rx.try_recv() {
            if let GatewayEvent::InteractionCreate {
                command, invoker, ..
            } = ev
            {
                delivered.push((command, invoker));
            }
        }
        assert_eq!(
            delivered,
            vec![("ping".to_string(), w.alice), ("kick".to_string(), w.owner)],
            "only authorized interactions reach the backend"
        );
    }

    #[test]
    fn slash_registration_is_owner_only() {
        use crate::slash::SlashCommand;
        let w = world();
        let app = w.platform.register_bot_application(w.owner, "S").unwrap();
        let err = w
            .platform
            .register_slash_commands(w.alice, app.client_id, vec![SlashCommand::public("x", "y")])
            .unwrap_err();
        assert!(matches!(err, PlatformError::Invalid { .. }));
    }

    #[test]
    fn slash_invocation_requires_installed_bot_and_known_command() {
        use crate::slash::SlashCommand;
        let w = world();
        let app = w.platform.register_bot_application(w.owner, "S").unwrap();
        w.platform
            .register_slash_commands(
                w.owner,
                app.client_id,
                vec![SlashCommand::public("ping", "p")],
            )
            .unwrap();
        // Not installed yet.
        let err = w
            .platform
            .invoke_slash(w.alice, w.channel, app.client_id, "ping", "")
            .unwrap_err();
        assert!(matches!(err, PlatformError::NotFound { .. }));
        w.platform
            .install_bot(
                w.owner,
                w.guild,
                &InviteUrl::bot(app.client_id, Permissions::NONE),
                true,
            )
            .unwrap();
        // Unknown command.
        let err = w
            .platform
            .invoke_slash(w.alice, w.channel, app.client_id, "dance", "")
            .unwrap_err();
        assert!(matches!(err, PlatformError::NotFound { .. }));
        // Known command now works.
        w.platform
            .invoke_slash(w.alice, w.channel, app.client_id, "ping", "")
            .unwrap();
    }

    #[test]
    fn webhook_lifecycle_and_token_only_auth() {
        let w = world();
        // Alice lacks MANAGE_WEBHOOKS.
        let err = w
            .platform
            .create_webhook(w.alice, w.channel, "ci-hook")
            .unwrap_err();
        assert!(matches!(err, PlatformError::MissingPermission { .. }));
        let hook = w
            .platform
            .create_webhook(w.owner, w.channel, "ci-hook")
            .unwrap();
        // Execution needs no account, only the token — the abuse surface.
        let id = w
            .platform
            .execute_webhook(hook.id, &hook.token, "build passed")
            .unwrap();
        let history = w.platform.read_history(w.owner, w.channel).unwrap();
        assert_eq!(history.last().unwrap().id, id);
        assert_eq!(history.last().unwrap().author, hook.user);
        // A stolen-but-wrong token is rejected.
        let err = w
            .platform
            .execute_webhook(hook.id, "whsec-guess", "spam")
            .unwrap_err();
        assert!(matches!(err, PlatformError::Invalid { .. }));
        // Listing requires MANAGE_WEBHOOKS (tokens are included).
        assert!(w.platform.webhooks(w.alice, w.channel).is_err());
        assert_eq!(w.platform.webhooks(w.owner, w.channel).unwrap().len(), 1);
        // Deletion is permission-gated and effective.
        assert!(w.platform.delete_webhook(w.alice, hook.id).is_err());
        w.platform.delete_webhook(w.owner, hook.id).unwrap();
        assert!(w
            .platform
            .execute_webhook(hook.id, &hook.token, "late")
            .is_err());
    }

    #[test]
    fn webhook_messages_reach_bot_gateways() {
        let w = world();
        let (_bot, rx) = install_test_bot(&w, Permissions::SEND_MESSAGES);
        let _ = rx.try_recv(); // GuildCreate
        let hook = w
            .platform
            .create_webhook(w.owner, w.channel, "feed")
            .unwrap();
        w.platform
            .execute_webhook(hook.id, &hook.token, "webhook says hi")
            .unwrap();
        match rx.try_recv().unwrap() {
            GatewayEvent::MessageCreate { message, .. } => {
                assert_eq!(message.content, "webhook says hi");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn voice_flow_connect_speak_mute() {
        let w = world();
        let voice = w
            .platform
            .create_channel(w.owner, w.guild, "lounge", ChannelKind::Voice)
            .unwrap();
        // Voice APIs reject text channels.
        assert!(w.platform.join_voice(w.alice, w.channel).is_err());
        // Default @everyone has CONNECT + SPEAK.
        w.platform.join_voice(w.alice, voice).unwrap();
        assert_eq!(w.platform.voice_members(voice), vec![w.alice]);
        w.platform.speak(w.alice, voice).unwrap();
        // Speaking without joining fails.
        assert!(w.platform.speak(w.owner, voice).is_err());
        // Server-mute silences alice but leaves her connected.
        assert!(
            w.platform.mute_member(w.alice, w.guild, w.alice).is_err(),
            "no MUTE_MEMBERS"
        );
        w.platform.mute_member(w.owner, w.guild, w.alice).unwrap();
        assert!(w.platform.speak(w.alice, voice).is_err());
        assert_eq!(w.platform.voice_members(voice), vec![w.alice]);
        // Leave is idempotent.
        w.platform.leave_voice(w.alice, voice);
        w.platform.leave_voice(w.alice, voice);
        assert!(w.platform.voice_members(voice).is_empty());
    }

    #[test]
    fn voice_connect_denied_without_permission() {
        let w = world();
        let voice = w
            .platform
            .create_channel(w.owner, w.guild, "vip", ChannelKind::Voice)
            .unwrap();
        let everyone = w.platform.guild(w.guild).unwrap().everyone_role;
        let stripped = Permissions::everyone_defaults().difference(Permissions::CONNECT);
        w.platform
            .edit_role(w.owner, w.guild, everyone, stripped)
            .unwrap();
        let err = w.platform.join_voice(w.alice, voice).unwrap_err();
        assert!(matches!(err, PlatformError::MissingPermission { .. }));
    }

    #[test]
    fn reactions_respect_permissions() {
        let w = world();
        let id = w
            .platform
            .send_message(w.owner, w.channel, "react to me", vec![])
            .unwrap();
        // Default @everyone includes ADD_REACTIONS.
        w.platform
            .add_reaction(w.alice, w.channel, id, Emoji::Unicode("👍".into()))
            .unwrap();
        // External emoji needs USE_EXTERNAL_EMOJIS, which @everyone lacks.
        let err = w
            .platform
            .add_reaction(w.alice, w.channel, id, Emoji::External("pepega".into()))
            .unwrap_err();
        assert!(matches!(err, PlatformError::MissingPermission { .. }));
        // Owner bypasses.
        w.platform
            .add_reaction(w.owner, w.channel, id, Emoji::External("pepega".into()))
            .unwrap();
        let reactions = w.platform.reactions(w.alice, w.channel, id).unwrap();
        assert_eq!(reactions.len(), 2);
        // Duplicate reactions are idempotent.
        w.platform
            .add_reaction(w.alice, w.channel, id, Emoji::Unicode("👍".into()))
            .unwrap();
        assert_eq!(
            w.platform.reactions(w.alice, w.channel, id).unwrap().len(),
            2
        );
        // Reacting to a ghost message fails.
        let ghost = MessageId(crate::snowflake::Snowflake(999_999));
        assert!(w
            .platform
            .add_reaction(w.alice, w.channel, ghost, Emoji::Unicode("x".into()))
            .is_err());
    }

    #[test]
    fn reactions_denied_without_add_reactions() {
        let w = world();
        let id = w
            .platform
            .send_message(w.owner, w.channel, "m", vec![])
            .unwrap();
        let everyone = w.platform.guild(w.guild).unwrap().everyone_role;
        let stripped = Permissions::everyone_defaults().difference(Permissions::ADD_REACTIONS);
        w.platform
            .edit_role(w.owner, w.guild, everyone, stripped)
            .unwrap();
        let err = w
            .platform
            .add_reaction(w.alice, w.channel, id, Emoji::Unicode("👍".into()))
            .unwrap_err();
        assert!(matches!(err, PlatformError::MissingPermission { .. }));
    }

    #[test]
    fn pins_require_manage_messages() {
        let w = world();
        let id = w
            .platform
            .send_message(w.alice, w.channel, "important", vec![])
            .unwrap();
        let err = w.platform.pin_message(w.alice, w.channel, id).unwrap_err();
        assert!(matches!(err, PlatformError::MissingPermission { .. }));
        w.platform.pin_message(w.owner, w.channel, id).unwrap();
        // Idempotent.
        w.platform.pin_message(w.owner, w.channel, id).unwrap();
        assert_eq!(w.platform.pins(w.alice, w.channel).unwrap(), vec![id]);
    }

    #[test]
    fn enforcer_filters_unaddressed_messages() {
        let w = world();
        let (bot, rx) = install_test_bot(&w, Permissions::SEND_MESSAGES);
        let _ = rx.try_recv(); // GuildCreate
        w.platform
            .set_runtime_policy(crate::enforcer::RuntimePolicy::Enforced);
        assert_eq!(
            w.platform.runtime_policy(),
            crate::enforcer::RuntimePolicy::Enforced
        );

        // Ordinary chatter is withheld from the bot…
        w.platform
            .send_message(w.alice, w.channel, "gossip about the weekend", vec![])
            .unwrap();
        assert!(
            rx.try_recv().is_err(),
            "unaddressed message must not reach the bot"
        );
        // …but commands still arrive.
        w.platform
            .send_message(w.alice, w.channel, "!ping", vec![])
            .unwrap();
        match rx.try_recv().unwrap() {
            GatewayEvent::MessageCreate { message, .. } => assert_eq!(message.content, "!ping"),
            other => panic!("unexpected {other:?}"),
        }
        let _ = bot;
    }

    #[test]
    fn least_privilege_delivery_filters_by_mention_and_registered_commands() {
        let w = world();
        let (bot, rx) = install_test_bot(&w, Permissions::SEND_MESSAGES);
        let _ = rx.try_recv(); // GuildCreate
        w.platform.register_bot_commands(bot, vec!["!kick".into()]);
        w.platform.set_least_privilege_delivery(true);
        assert!(w.platform.least_privilege_delivery());
        assert_eq!(w.platform.registered_commands(bot), vec!["!kick"]);

        // Unaddressed chatter and other bots' commands are withheld…
        w.platform
            .send_message(w.alice, w.channel, "gossip about the weekend", vec![])
            .unwrap();
        w.platform
            .send_message(w.alice, w.channel, "!play a song", vec![])
            .unwrap();
        assert!(rx.try_recv().is_err());
        // …the bot's own command and mentions arrive, attachments intact.
        let att = Attachment::new("doc.pdf", "application/pdf", vec![9u8]);
        w.platform
            .send_message(w.alice, w.channel, "!kick @bob", vec![att])
            .unwrap();
        match rx.try_recv().unwrap() {
            GatewayEvent::MessageCreate { message, .. } => {
                assert_eq!(message.content, "!kick @bob");
                assert_eq!(message.attachments.len(), 1, "attachments untouched");
            }
            other => panic!("unexpected {other:?}"),
        }
        // History reads stay legal — the toggle mediates fan-out only.
        assert!(w.platform.read_history(bot, w.channel).is_ok());
        // Toggle off restores full delivery.
        w.platform.set_least_privilege_delivery(false);
        w.platform
            .send_message(w.alice, w.channel, "plain chatter again", vec![])
            .unwrap();
        assert!(rx.try_recv().is_ok());
    }

    #[test]
    fn enforcer_strips_attachments_from_delivered_events() {
        let w = world();
        let (_bot, rx) = install_test_bot(&w, Permissions::SEND_MESSAGES);
        let _ = rx.try_recv();
        w.platform
            .set_runtime_policy(crate::enforcer::RuntimePolicy::Enforced);
        let att = Attachment::new("secret.pdf", "application/pdf", vec![1u8, 2, 3]);
        w.platform
            .send_message(w.alice, w.channel, "!scan this", vec![att])
            .unwrap();
        match rx.try_recv().unwrap() {
            GatewayEvent::MessageCreate { message, .. } => {
                assert!(
                    message.attachments.is_empty(),
                    "attachments must be stripped"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn enforcer_blocks_bot_history_reads_but_not_humans() {
        let w = world();
        let (bot, _rx) = install_test_bot(&w, Permissions::ADMINISTRATOR);
        w.platform
            .send_message(w.alice, w.channel, "history entry", vec![])
            .unwrap();
        // Unenforced: even a non-admin human and the admin bot may read.
        assert!(w.platform.read_history(bot, w.channel).is_ok());
        w.platform
            .set_runtime_policy(crate::enforcer::RuntimePolicy::Enforced);
        // Enforced: the bot is cut off despite being administrator…
        let err = w.platform.read_history(bot, w.channel).unwrap_err();
        assert!(matches!(err, PlatformError::MissingPermission { .. }));
        // …while humans are untouched.
        assert!(w.platform.read_history(w.alice, w.channel).is_ok());
    }

    #[test]
    fn effective_permissions_wrapper() {
        let w = world();
        let p = w
            .platform
            .effective_permissions(w.alice, w.channel)
            .unwrap();
        assert!(p.contains(Permissions::SEND_MESSAGES));
        let (bot, _rx) = install_test_bot(&w, Permissions::ADMINISTRATOR);
        assert_eq!(
            w.platform.effective_permissions(bot, w.channel).unwrap(),
            Permissions::ALL_KNOWN
        );
    }
}
